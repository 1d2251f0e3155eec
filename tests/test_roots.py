"""The in-package Brent root finder against scipy's, bit for bit.

scipy stays the oracle: every root is compared with ``scipy.optimize.brentq``
on the same function, bracket and tolerance, and each of the package's three
call sites gives the same result with either solver swapped in.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

import flockdde.diagnostics as diagnostics_module
import flockdde.dynamics as dynamics_module
import flockdde.kernel as kernel_module
from flockdde import roots
from flockdde.diagnostics import DiagnosticsFrame, certify_flocking, gronwall_rate
from flockdde.kernel import CuckerSmaleKernel
from flockdde.roots import brentq

_XTOLS = st.sampled_from([2e-12, 1e-300, 5e-324])

# increasing in x with one root at c, each in a slope or steepness p; none
# overflows for |x - c| <= 2e100
_FAMILIES = {
    "power": lambda c, p: lambda x: math.copysign(abs(x - c) ** p, x - c),
    "atan": lambda c, p: lambda x: p * math.atan(x - c),
    "cubic": lambda c, p: lambda x: (x - c) ** 3 + p * (x - c),
    "tanh": lambda c, p: lambda x: math.tanh(1e3 * (x - c)) + 1e-3 * p * (x - c),
    # values near the bottom of the range: products of two of them underflow
    "tiny": lambda c, p: lambda x: 1e-300 * p * (x - c),
}


def _outcome(solve, *args, **kwargs):
    """The root's bits, or the type of the exception the solver raised."""
    try:
        root = solve(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    assert type(root) is float
    return root.hex()


def _same_with_either_solver(monkeypatch, module, compute):
    """``compute()`` with the package's solver and with scipy's in ``module``."""
    ours = compute()
    monkeypatch.setattr(module, "brentq", scipy_brentq)
    theirs = compute()
    monkeypatch.undo()
    return ours, theirs


def test_monotone_functions_match_scipy_bit_for_bit(time_limit):
    @settings(max_examples=1500, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(sorted(_FAMILIES)), st.booleans(),
           st.floats(-1e100, 1e100), st.floats(0.0, 1e100), st.floats(0.0, 1.0),
           st.floats(0.1, 3.0), _XTOLS)
    def check(family, decreasing, a, width, t, p, xtol):
        b = a + width
        f = _FAMILIES[family](a + t * width, p)
        g = (lambda x: -f(x)) if decreasing else f
        assert _outcome(brentq, g, a, b, xtol) == _outcome(scipy_brentq, g, a, b, xtol=xtol)

    with time_limit(120):
        check()


class TestErrors:
    def test_same_sign_ends_raise_value_error(self):
        # 1e-200 squared underflows to 0: the ends' signs are compared, not
        # their product
        for f in (lambda x: x + 1.0, lambda x: 1e-200):
            with pytest.raises(ValueError, match="different signs"):
                brentq(f, 0.0, 1.0, 1e-12)
            with pytest.raises(ValueError, match="different signs"):
                scipy_brentq(f, 0.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    def test_nan_value_raises_value_error(self, where):
        def f(x):
            return math.nan if x == where or (where == 0.5 and 0.2 < x < 0.8) else x - 0.3

        with pytest.raises(ValueError, match="is NaN"):
            brentq(f, 0.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="is NaN"):
            scipy_brentq(f, 0.0, 1.0, xtol=1e-12)

    def test_slow_convergence_raises_runtime_error(self):
        # a step at 1e-200 on [-1e300, 1e300] needs over 1500 halvings
        def f(x):
            return 1.0 if x > 1e-200 else -1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq(f, -1e300, 1e300, 5e-324)
        with pytest.raises(RuntimeError):
            scipy_brentq(f, -1e300, 1e300, xtol=5e-324)

    @pytest.mark.parametrize("maxiter", [1712, 1713])
    def test_maxiter_is_scipys(self, maxiter):
        # the same step converges in 1713 iterations, with either solver
        def f(x):
            return 1.0 if x > 1e-200 else -1.0

        ours = _outcome(brentq, f, -1e300, 1e300, 5e-324, maxiter=maxiter)
        assert ours == _outcome(scipy_brentq, f, -1e300, 1e300, xtol=5e-324, maxiter=maxiter)
        assert (ours is RuntimeError) == (maxiter < 1713)


class TestCallSites:
    def test_budget_radius(self, monkeypatch, time_limit):
        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.floats(0.51, 40.0), st.floats(-3.0, 200.0), st.floats(0.0, 1.0,
                                                                        exclude_min=True))
        def check(beta, log_limit, share):
            kernel = CuckerSmaleKernel(beta)
            a = 10.0**log_limit
            budget = share * kernel.tail_integral(a)
            ours, theirs = _same_with_either_solver(
                monkeypatch, kernel_module, lambda: kernel.budget_radius(a, budget))
            assert ours.hex() == theirs.hex()

        with time_limit(60):
            check()

    def test_gronwall_rate(self, monkeypatch, time_limit):
        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               st.floats(0.0, 300.0, exclude_min=True))
        def check(a, tau):
            ours, theirs = _same_with_either_solver(
                monkeypatch, diagnostics_module, lambda: gronwall_rate(a, tau))
            assert ours.hex() == theirs.hex()

        with time_limit(60):
            check()

    def test_first_crossing(self, monkeypatch, time_limit):
        tol = dynamics_module.DETJ_TOLERANCE

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.floats(1e-4, 1e-1), st.floats(0.0, 2.0, exclude_min=True),
               st.floats(-100.0, 100.0), st.floats(-2.0, 0.0), st.floats(-100.0, 100.0))
        def check(h, y0, m0, y1, m1):
            args = (h, y0 + tol, m0, y1 + tol, m1)
            ours, theirs = _same_with_either_solver(
                monkeypatch, dynamics_module, lambda: dynamics_module._first_crossing(*args))
            assert ours.hex() == theirs.hex()

        with time_limit(60):
            check()

    def test_certificate_far_beyond_underflow_divides_by_zero(self, monkeypatch):
        # at a limit of 1e170 the extrapolation step divides by a zero
        # difference, which C turns into inf or NaN and Python would raise on
        zero_divisors = []
        div = roots._div

        def counted(num, den):
            zero_divisors.append(den == 0.0)
            return div(num, den)

        monkeypatch.setattr(roots, "_div", counted)
        # a prehistory at rest, d_X = 1e170 apart, on [-0.1, 0]
        frames = [DiagnosticsFrame(t=t, d_X=1e170, d_V=1e-171, max_speed=0.0,
                                   lyapunov=math.nan, X=1e170, V=1e-171,
                                   min_detJ=1.0, max_velgrad_norm=0.0) for t in (-0.1, 0.0)]
        ours = certify_flocking(frames, CuckerSmaleKernel(1.0))
        monkeypatch.undo()
        assert any(zero_divisors)
        monkeypatch.setattr(kernel_module, "brentq", scipy_brentq)
        monkeypatch.setattr(diagnostics_module, "brentq", scipy_brentq)
        theirs = certify_flocking(frames, CuckerSmaleKernel(1.0))
        assert ours.d_star.hex() == theirs.d_star.hex() and ours == theirs
