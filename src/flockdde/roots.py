"""Brent's root finder on a sign-changing bracket, in plain floats.

A port of scipy's C ``brentq`` (Brent, *Algorithms for Minimization Without
Derivatives*, 1973, ch. 4, in the form of scipy 1.17): the same inverse
quadratic interpolation, secant and bisection steps, the same tolerance
``xtol + 4 eps |x|`` and ``maxiter``, 100 by default, so a root has the bits
scipy gives it.  The package solves three scalar equations with it (the
certificate's budget radius, the Gronwall rate and the blow-up crossing),
without importing ``scipy.optimize``.
"""

from __future__ import annotations

import math

__all__ = ["brentq"]

_RTOL = 4.0 * 2.0**-52
# No bracket within [0, 1024] exhausts this maxiter at xtol = 1e-300: k = 1008
# bisections take it below xtol, and at most 2 k + 2 interpolation steps lie
# between two, each under half the step before last, none once that is < xtol / 2.
_WIDE_MAXITER = (1008 + 1) * (2 * 1008 + 3)


def _div(num: float, den: float) -> float:
    """``num / den`` as C divides doubles: a zero divisor gives +-inf or NaN
    where Python would raise ZeroDivisionError."""
    if den:
        return num / den
    if num == 0.0 or num != num:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def brentq(f, a: float, b: float, xtol: float, args: tuple = (), maxiter: int = 100) -> float:
    """A root of ``f(x, *args)`` between ``a`` and ``b``, where ``f`` changes sign.

    Stops when the bracket's half width falls below ``(xtol + 4 eps |x|) / 2``
    or ``f`` is 0, and returns the end with the smaller ``|f|``.  Raises
    ValueError for a NaN value of ``f`` or ends of the same sign, and
    RuntimeError after ``maxiter`` iterations without convergence.
    """
    def value(x):
        fx = float(f(x, *args))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
