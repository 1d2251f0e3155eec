"""Influence kernels: radial communication weights and their tail integrals.

A kernel is the nonincreasing, strictly positive radial profile that weighs
pairwise interactions by distance, normalized to 1 at distance zero.  Two
families are provided: the algebraic ``1/(1+r^2)^beta`` profile and a
tabulated profile interpolated monotonically from sample points.  Kernels are
immutable and all methods are pure, so instances are safe to share across
threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

__all__ = [
    "CuckerSmaleKernel",
    "TabulatedKernel",
    "UnsupportedKernelError",
    "kernel_from_config",
]

# Relative size of the analytic remainder at which the tail quadrature stops.
_TAIL_REMAINDER_REL = 1e-10
# Panels double from a width of at least 1, so the upper end overflows to inf
# (where the profile is 0 and the loop stops) within 1024 doublings; the cap
# only bounds the loop.
_TAIL_MAX_PANELS = 1100


class UnsupportedKernelError(Exception):
    """The requested operation needs a kernel capability this family lacks."""


def _check_radii(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("kernel radius must be nonnegative")
    return r


def _as_input_shape(values, r):
    if np.ndim(r) == 0:
        return float(values)
    return values


class CuckerSmaleKernel:
    """Algebraic profile ``(1 + r^2)^{-beta}`` with ``beta >= 0``.

    ``beta = 0`` gives the flat kernel (identically 1).  The profile is
    normalized, nonincreasing and strictly positive, and its log-derivative
    is bounded: ``|d/dr psi| <= 2 beta psi`` everywhere.
    """

    def __init__(self, beta: float):
        beta = float(beta)
        if beta < 0 or not math.isfinite(beta):
            raise ValueError(f"beta must be a finite nonnegative real, got {beta}")
        self.beta = beta

    def __repr__(self):
        return f"CuckerSmaleKernel(beta={self.beta})"

    @property
    def log_deriv_bound(self) -> float:
        """Constant C with ``|psi'| <= C psi``; 2*beta for this family."""
        return 2.0 * self.beta

    def eval(self, r):
        """Profile value at radius ``r`` (scalar or array), in (0, 1]."""
        r = _check_radii(r)
        if self.beta == 0.0:
            out = np.ones_like(r)
        else:
            # r * r overflows to inf above about 1.3e154, where 0 is right
            with np.errstate(over="ignore"):
                out = (1.0 + r * r) ** (-self.beta)
        return _as_input_shape(out, r)

    def profile(self, r: float) -> float:
        """Profile value at one radius ``r >= 0``, in plain floats.

        Equal to ``eval(r)`` bit for bit (the same IEEE operations and libm
        ``pow``) without the array round trip, for scalar quadratures.
        """
        if self.beta == 0.0:
            return 1.0
        r = float(r)
        return (1.0 + r * r) ** -self.beta

    def eval_deriv(self, r):
        """Radial derivative of the profile; nonpositive everywhere."""
        r = _check_radii(r)
        if self.beta == 0.0:
            out = np.zeros_like(r)
        else:
            # where the power underflows to 0, -2 beta r may overflow to -inf
            # (r = inf, or r near the top of the range) and their product is
            # NaN; the derivative there is -0
            with np.errstate(over="ignore", invalid="ignore"):
                power = (1.0 + r * r) ** (-self.beta - 1.0)
                out = np.where(power == 0.0, -0.0, -2.0 * self.beta * r * power)
        return _as_input_shape(out, r)

    @property
    def is_flat(self) -> bool:
        """True when the profile is identically 1 (``beta = 0``)."""
        return self.beta == 0.0

    def eval_with_deriv_sq(self, q):
        """Profile ``psi`` and ``psi'(r) / r`` at squared radii ``q = r^2``.

        Both come from one power: ``psi = (1 + q)^-beta`` and
        ``psi'/r = -2 beta psi / (1 + q)``, finite at ``q = 0``.  ``q`` is an
        array of nonnegative values (or NaN, which propagates); both results
        are new arrays that the caller may overwrite.
        """
        base = 1.0 + q
        psi = base ** (-self.beta)
        dpsi_r = np.divide(psi, base, out=base)
        dpsi_r *= -2.0 * self.beta
        return psi, dpsi_r

    def tail_integral(self, R: float) -> float:
        """Integral of the profile from ``R`` to infinity.

        Returns ``math.inf`` for ``beta <= 1/2`` (divergent tail, the
        unconditional-flocking regime).  Otherwise integrates adaptively over
        geometrically growing panels ``[a, 2a]`` until the analytic remainder
        bound ``a^(1-2 beta) / (2 beta - 1)`` drops below 1e-10 of the partial
        sum, then adds that bound (the true remainder is just below it, so
        adding it keeps the relative error under 1e-10).  A bound that
        underflows to 0, or a profile that is 0 at the panel end (the partial
        sum can no longer grow), also ends the loop.
        """
        R = float(R)
        if not R >= 0:
            raise ValueError(f"tail integral lower limit must be nonnegative, got {R}")
        if self.beta <= 0.5:
            return math.inf

        def remainder_bound(a):
            return a ** (1.0 - 2.0 * self.beta) / (2.0 * self.beta - 1.0)

        total = 0.0
        lo = R
        hi = max(2.0 * R, R + 1.0)
        for _ in range(_TAIL_MAX_PANELS):
            piece, _ = quad(self.profile, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
            total += piece
            bound = remainder_bound(hi)
            if bound <= _TAIL_REMAINDER_REL * total or self.profile(hi) == 0.0:
                return total + bound
            lo, hi = hi, 2.0 * hi
        raise RuntimeError(f"tail integral from {R} did not converge")

    def to_config(self) -> dict:
        return {"family": "cucker-smale", "beta": self.beta}


class TabulatedKernel:
    """Monotone piecewise-cubic profile through ``(radii, values)`` samples.

    The table must start at radius 0 with value 1 (normalization) and the
    values must be positive and nonincreasing.  Beyond the last node the
    profile extends as a constant, which keeps it positive and nonincreasing;
    the derivative there is 0.  Tail integrals are unsupported (a tabulated
    profile carries no tail model).
    """

    def __init__(self, radii, values):
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
        self._interp = PchipInterpolator(radii, values, extrapolate=False)
        self._interp_deriv = self._interp.derivative()

    def __repr__(self):
        return f"TabulatedKernel({self.radii.size} nodes, last radius {self.radii[-1]})"

    @property
    def log_deriv_bound(self):
        """No certified log-derivative bound for a tabulated profile."""
        return None

    def eval(self, r):
        r = _check_radii(r)
        inside = np.minimum(r, self.radii[-1])
        out = self._interp(inside)
        return _as_input_shape(np.asarray(out, dtype=float), r)

    def profile(self, r: float) -> float:
        """Profile value at one radius ``r >= 0`` as a plain float."""
        return float(self.eval(r))

    def eval_deriv(self, r):
        r = _check_radii(r)
        inside = np.minimum(r, self.radii[-1])
        out = np.asarray(self._interp_deriv(inside), dtype=float)
        out = np.where(r >= self.radii[-1], 0.0, out)
        return _as_input_shape(out, r)

    @property
    def is_flat(self) -> bool:
        """True when every tabulated value is 1 (the profile is constant)."""
        return bool(np.all(self.values == 1.0))

    def eval_with_deriv_sq(self, q):
        """Profile and ``psi'(r) / r`` at squared radii ``q``; 0 at ``r = 0``.

        The generic path: takes ``r = sqrt(q)`` and divides the derivative by
        it.  At ``r = 0`` the quotient is set to 0, the radially symmetric
        value of ``psi'(r) * unit`` there.  Both results are new arrays.
        """
        r = np.sqrt(q)
        with np.errstate(invalid="ignore", divide="ignore"):
            dpsi_r = np.where(r > 0.0, self.eval_deriv(r) / r, 0.0)
        return self.eval(r), dpsi_r

    def tail_integral(self, R: float) -> float:
        raise UnsupportedKernelError(
            "tail integral of a tabulated kernel is undefined (no tail model)"
        )

    def to_config(self) -> dict:
        return {
            "family": "tabulated",
            "radii": [float(x) for x in self.radii],
            "values": [float(x) for x in self.values],
        }


def kernel_from_config(spec: dict):
    """Build a kernel from its config mapping (see README for the schema)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("kernel config must be a mapping with a 'family' key")
    family = spec["family"]
    if family == "cucker-smale":
        return CuckerSmaleKernel(spec["beta"])
    if family == "tabulated":
        return TabulatedKernel(spec["radii"], spec["values"])
    raise ValueError(f"unknown kernel family {family!r}")
