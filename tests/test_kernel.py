"""Kernel profile, derivative and tail-integral checks against closed forms."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from flockdde.kernel import (
    CuckerSmaleKernel,
    TabulatedKernel,
    UnsupportedKernelError,
    kernel_from_config,
)


def test_eval_normalization_at_zero():
    for beta in (0.0, 0.25, 1.0, 3.7):
        assert CuckerSmaleKernel(beta).eval(0.0) == 1.0


def test_flat_kernel_is_identically_one():
    k = CuckerSmaleKernel(0.0)
    assert k.eval(17.3) == 1.0
    assert k.eval_deriv(123.4) == 0.0


def test_eval_beta_one_closed_form():
    k = CuckerSmaleKernel(1.0)
    assert k.eval(1.0) == pytest.approx(0.5, abs=0, rel=1e-15)


def test_eval_rejects_negative_radius():
    k = CuckerSmaleKernel(1.0)
    with pytest.raises(ValueError):
        k.eval(-0.1)
    with pytest.raises(ValueError):
        k.eval_deriv(np.array([0.5, -1e-9]))
    with pytest.raises(ValueError):
        k.tail_integral(-1.0)


def test_eval_deriv_closed_forms():
    assert CuckerSmaleKernel(1.0).eval_deriv(1.0) == pytest.approx(-0.5, rel=1e-14)
    # d/dr (1+r^2)^(-1/4) at r=2 via the chain rule
    expected = -2.0 * 0.25 * 2.0 * 5.0 ** (-1.25)
    assert CuckerSmaleKernel(0.25).eval_deriv(2.0) == pytest.approx(expected, rel=1e-14)


def test_eval_deriv_matches_central_difference_with_order_two():
    k = CuckerSmaleKernel(1.3)
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.3, 3.0, size=20)
    errs = {}
    for h in (1e-3, 1e-4):
        fd = (k.eval(radii + h) - k.eval(radii - h)) / (2 * h)
        errs[h] = np.max(np.abs(fd - k.eval_deriv(radii)))
    order = math.log10(errs[1e-3] / errs[1e-4])
    assert order >= 1.9


def test_monotone_nonincreasing_sampled():
    rng = np.random.default_rng(3)
    for kernel in (
        CuckerSmaleKernel(0.0),
        CuckerSmaleKernel(0.6),
        TabulatedKernel([0.0, 1.0, 2.0, 5.0], [1.0, 0.5, 0.2, 0.1]),
    ):
        r = np.sort(rng.uniform(0.0, 8.0, size=200))
        v = kernel.eval(r)
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all(v > 0)
        assert np.all(v <= 1.0)


def test_log_derivative_bound_sampled():
    for beta in (0.25, 1.0, 2.0):
        k = CuckerSmaleKernel(beta)
        r = np.random.default_rng(11).uniform(0.0, 50.0, size=10_000)
        ratio = np.abs(k.eval_deriv(r)) / k.eval(r)
        assert ratio.max() <= 2 * beta + 1e-12


def test_tail_integral_divergent_for_heavy_tails():
    assert CuckerSmaleKernel(0.25).tail_integral(0.0) == math.inf
    assert CuckerSmaleKernel(0.5).tail_integral(3.0) == math.inf
    assert CuckerSmaleKernel(0.0).tail_integral(0.0) == math.inf


def test_tail_integral_beta_one_closed_form():
    k = CuckerSmaleKernel(1.0)
    for R in (0.0, 1.0, 10.0):
        exact = math.pi / 2 - math.atan(R)
        assert abs(k.tail_integral(R) - exact) <= 1e-9 * exact


def test_tail_integral_quadrature_oracle():
    # independent oracle: adaptive quadrature on a split finite range plus the
    # same analytic remainder at a far larger cutoff
    k = CuckerSmaleKernel(0.8)
    R = 0.5
    cut = 1e9
    oracle = 0.0
    lo = R
    for hi in (R + 1, 10.0, 1e3, 1e6, cut):
        part, _ = quad(lambda s: (1 + s * s) ** -0.8, lo, hi, epsabs=1e-14, epsrel=1e-13)
        oracle += part
        lo = hi
    oracle += cut ** (1 - 1.6) / 0.6
    assert k.tail_integral(R) == pytest.approx(oracle, rel=1e-9)


def test_tail_additivity():
    for beta in (0.75, 1.0, 2.0):
        k = CuckerSmaleKernel(beta)
        r1, r2 = 0.3, 4.2
        middle, _ = quad(k.eval, r1, r2, epsabs=1e-14, epsrel=1e-13)
        lhs = k.tail_integral(r1)
        rhs = k.tail_integral(r2) + middle
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_tabulated_interpolation_and_extension():
    k = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.2])
    assert k.eval(0.0) == 1.0
    assert k.eval(1.0) == pytest.approx(0.4, rel=1e-15)
    # constant extension beyond the last node
    assert k.eval(2.0) == pytest.approx(0.2, rel=1e-15)
    assert k.eval(10.0) == pytest.approx(0.2, rel=1e-15)
    assert k.eval_deriv(10.0) == 0.0
    assert np.all(np.asarray(k.eval_deriv(np.linspace(0, 5, 50))) <= 1e-15)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedKernel([0.5, 1.0], [1.0, 0.5])  # must start at r=0
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [0.9, 0.5])  # must be normalized
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.2, 0.5])  # increasing segment
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [1.0, -0.1])  # nonpositive value


def test_tabulated_tail_unsupported():
    k = TabulatedKernel([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(UnsupportedKernelError):
        k.tail_integral(0.0)


def test_config_round_trip():
    k = kernel_from_config({"family": "cucker-smale", "beta": 0.25})
    assert isinstance(k, CuckerSmaleKernel) and k.beta == 0.25
    t = kernel_from_config({"family": "tabulated", "radii": [0, 1], "values": [1, 0.5]})
    assert isinstance(t, TabulatedKernel)
    assert kernel_from_config(k.to_config()).beta == k.beta
    with pytest.raises(ValueError):
        kernel_from_config({"family": "morse"})


def test_tail_integral_underflowed_profile_returns_quickly(time_limit):
    # (1 + 1e18)^-40 underflows: the partial sum stays 0 and so does the
    # remainder bound, which once left the panel loop spinning forever
    with time_limit(5):
        start = time.perf_counter()
        value = CuckerSmaleKernel(40.0).tail_integral(1e9)
        elapsed = time.perf_counter() - start
    assert value == 0.0
    assert elapsed < 0.5


def test_tail_integral_near_critical_beta_terminates(time_limit):
    # beta just above 1/2: the remainder bound never falls below 1e-10 of the
    # partial sum; the loop ends where the profile is 0, with the analytic
    # tail (1/(2 beta - 1) to leading order) still accounted for
    beta = 0.5 + 1e-7
    with time_limit(5):
        value = CuckerSmaleKernel(beta).tail_integral(1.0)
    assert value == pytest.approx(1.0 / (2.0 * beta - 1.0), rel=1e-3)


def test_tail_integral_rejects_nan_limit():
    with pytest.raises(ValueError):
        CuckerSmaleKernel(2.0).tail_integral(math.nan)


@pytest.mark.parametrize("kernel", [CuckerSmaleKernel(0.0), CuckerSmaleKernel(1.5),
                                    TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.6, 0.3])],
                         ids=repr)
def test_eval_with_deriv_sq_matches_radius_methods(kernel):
    r = np.array([0.0, 1e-8, 0.3, 1.0, 1.7, 2.0, 5.0])
    psi, dpsi_r = kernel.eval_with_deriv_sq(r * r)
    assert np.allclose(psi, kernel.eval(r), rtol=1e-14, atol=0.0)
    # at r = 0: the Cucker-Smale limit -2 beta; the generic path returns 0
    assert dpsi_r[0] == (-2.0 * kernel.beta if hasattr(kernel, "beta") else 0.0)
    assert np.allclose(dpsi_r[1:] * r[1:], kernel.eval_deriv(r[1:]),
                       rtol=1e-12, atol=1e-300)


def test_is_flat():
    assert CuckerSmaleKernel(0.0).is_flat
    assert not CuckerSmaleKernel(0.25).is_flat
    assert TabulatedKernel([0.0, 1.0], [1.0, 1.0]).is_flat
    assert not TabulatedKernel([0.0, 1.0], [1.0, 0.5]).is_flat


def test_huge_radius_gives_zero_without_fp_warnings():
    # r * r overflows to inf above about 1.3e154; the profile there is 0
    k = CuckerSmaleKernel(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k.eval(1e200) == 0.0
        assert k.eval_deriv(1e200) == 0.0
        assert k.profile(1e200) == 0.0
        assert np.all(k.eval(np.array([1.0, 1e200])) == [0.5, 0.0])


@given(r=st.floats(min_value=0.0, max_value=1e308, allow_nan=False,
                   allow_infinity=False),
       beta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.7, 40.0]))
def test_profile_is_eval_bit_for_bit(r, beta):
    k = CuckerSmaleKernel(beta)
    value = k.profile(r)
    assert type(value) is float
    assert np.float64(value).tobytes() == np.float64(k.eval(r)).tobytes()


def test_tabulated_profile_is_eval():
    k = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.6, 0.3])
    for r in (0.0, 0.4, 1.0, 1.9, 2.0, 7.5):
        value = k.profile(r)
        assert type(value) is float and value == k.eval(r)
