"""Kernel profile, derivative and tail-integral checks against closed forms."""

import math
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import cucker_smale, float_bits, monotone_tables, radius_methods
from flockdde.kernel import CuckerSmaleKernel, TabulatedKernel


def _psi_and_slope(kernel, r):
    """``psi`` and ``psi'`` at radii ``r`` from one ``eval_with_deriv_sq``
    call on their squares, as the force reads it."""
    r = np.asarray(r, dtype=float)
    psi, dpsi_r = kernel.eval_with_deriv_sq(r * r)
    return psi, dpsi_r * r


def test_normalization_at_zero():
    for beta in (0.0, 0.25, 1.0, 3.7):
        k = CuckerSmaleKernel(beta)
        psi, dpsi_r = k.eval_with_deriv_sq(np.zeros(1))
        assert psi[0] == k.profile(0.0) == 1.0
        assert dpsi_r[0] == -2.0 * beta  # psi'(r) / r is finite at r = 0


def test_flat_kernel_is_identically_one():
    k = CuckerSmaleKernel(0.0)
    psi, dpsi_r = k.eval_with_deriv_sq(np.array([0.0, 17.3**2, 1e300, math.inf]))
    assert np.all(psi == 1.0) and np.all(dpsi_r == 0.0)
    assert k.profile(17.3) == 1.0


def test_beta_one_closed_form():
    psi, slope = _psi_and_slope(CuckerSmaleKernel(1.0), [1.0])
    assert psi[0] == CuckerSmaleKernel(1.0).profile(1.0) == 0.5
    assert slope[0] == pytest.approx(-0.5, rel=1e-14)
    # d/dr (1+r^2)^(-1/4) at r=2 via the chain rule
    expected = -2.0 * 0.25 * 2.0 * 5.0 ** (-1.25)
    _, slope = _psi_and_slope(CuckerSmaleKernel(0.25), [2.0])
    assert slope[0] == pytest.approx(expected, rel=1e-14)


def test_negative_radius_rejected():
    k = CuckerSmaleKernel(1.0)
    with pytest.raises(ValueError):
        k.tail_integral(-1.0)
    with pytest.raises(ValueError):
        k.integral(-0.1, 1.0)


def test_derivative_matches_central_difference_with_order_two():
    k = CuckerSmaleKernel(1.3)
    rng = np.random.default_rng(7)
    radii = rng.uniform(0.3, 3.0, size=20)
    errs = {}
    for h in (1e-3, 1e-4):
        fd = (_psi_and_slope(k, radii + h)[0] - _psi_and_slope(k, radii - h)[0]) / (2 * h)
        errs[h] = np.max(np.abs(fd - _psi_and_slope(k, radii)[1]))
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
        v = np.array([kernel.profile(x) for x in r])
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all(v > 0)
        assert np.all(v <= 1.0)


def test_log_derivative_bound_sampled():
    for beta in (0.25, 1.0, 2.0):
        k = CuckerSmaleKernel(beta)
        r = np.random.default_rng(11).uniform(0.0, 50.0, size=10_000)
        psi, slope = _psi_and_slope(k, r)
        ratio = np.abs(slope) / psi
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
        middle, _ = quad(cucker_smale(beta)[0], r1, r2, epsabs=1e-14, epsrel=1e-13)
        lhs = k.tail_integral(r1)
        rhs = k.tail_integral(r2) + middle
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_tabulated_interpolation_and_extension():
    k = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.4, 0.2])
    assert k.profile(0.0) == 1.0
    assert k.profile(1.0) == pytest.approx(0.4, rel=1e-15)
    # constant extension beyond the last node
    assert k.profile(2.0) == pytest.approx(0.2, rel=1e-15)
    assert k.profile(10.0) == pytest.approx(0.2, rel=1e-15)
    assert k.eval_with_deriv_sq(np.array([100.0]))[1][0] == 0.0
    r = np.linspace(0, 5, 50)
    assert np.all(k.eval_with_deriv_sq(r * r)[1] * r <= 1e-15)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedKernel([0.5, 1.0], [1.0, 0.5])  # must start at r=0
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [0.9, 0.5])  # must be normalized
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.2, 0.5])  # increasing segment
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [1.0, -0.1])  # nonpositive value


def test_tabulated_tail_is_infinite():
    # the constant extension past the last node makes every tail diverge
    k = TabulatedKernel([0.0, 1.0], [1.0, 0.5])
    assert k.tail_integral(0.0) == k.tail_integral(7.5) == math.inf
    with pytest.raises(ValueError):
        k.tail_integral(math.nan)


# flat pieces included
TABLES = monotone_tables(st.integers(2, 8), st.floats(0.01, 2.0),
                         st.floats(0.05, 1.0) | st.just(1.0))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(TABLES)
def test_tabulated_log_deriv_bound_covers_the_sampled_ratio(table):
    k = TabulatedKernel(*table)
    value, slope = radius_methods(k)
    r = np.linspace(0.0, k.radii[-1] * 1.25, 20001)
    sampled = float(np.max(np.abs(slope(r)) / value(r)))
    assert sampled <= k.log_deriv_bound < math.inf


def _dense_cucker_smale_table():
    """Cucker-Smale beta = 1 sampled every 0.01 on [0, 20]."""
    radii = np.arange(2001) * 0.01
    return TabulatedKernel(radii, cucker_smale(1.0)[0](radii))


def test_tabulated_log_deriv_bound_of_a_dense_cucker_smale_table():
    # |psi'| / psi = 2 r / (1 + r^2) peaks at 1 (r = 1) for beta = 1; the
    # bound divides each piece's steepest slope by its smallest value
    assert 1.0 <= _dense_cucker_smale_table().log_deriv_bound <= 1.02


def test_tabulated_budget_radius_past_the_last_node_is_linear():
    k = _dense_cucker_smale_table()
    last, tail = 20.0, float(k.values[-1])
    for a, budget in ((0.0, 2.0), (0.5, 10.0), (19.0, 1.0), (19.99, 0.05)):
        expected = last + (budget - k.integral(a, last)) / tail
        assert expected > last
        assert _rel_err(k.budget_radius(a, budget), expected) <= 1e-14, (a, budget)
    for a, budget in ((20.0, 0.3), (35.0, 1e-3)):
        assert _rel_err(k.budget_radius(a, budget), a + budget / tail) <= 1e-14, (a, budget)


def test_tail_integral_underflowed_profile_returns_quickly(time_limit):
    # (1 + 1e18)^-40 underflows; the tail is 0 in floating point, and a
    # panel quadrature once spun forever on it
    with time_limit(5):
        start = time.perf_counter()
        value = CuckerSmaleKernel(40.0).tail_integral(1e9)
        elapsed = time.perf_counter() - start
    assert value == 0.0
    assert elapsed < 0.5


def test_tail_integral_near_critical_beta_terminates(time_limit):
    # beta just above 1/2: the tail is 1/(2 beta - 1) to leading order; a
    # panel quadrature once never reached its remainder target here
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
    value, slope = radius_methods(kernel)
    r = np.array([0.0, 1e-8, 0.3, 1.0, 1.7, 2.0, 5.0])
    psi, dpsi_r = kernel.eval_with_deriv_sq(r * r)
    assert np.allclose(psi, value(r), rtol=1e-14, atol=0.0)
    # at r = 0: the Cucker-Smale limit -2 beta; the generic path returns 0
    assert dpsi_r[0] == (-2.0 * kernel.beta if hasattr(kernel, "beta") else 0.0)
    assert np.allclose(dpsi_r[1:] * r[1:], slope(r[1:]), rtol=1e-12, atol=1e-300)


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
        psi, dpsi_r = k.eval_with_deriv_sq(np.array([1.0, math.inf]))
        assert k.profile(1e200) == 0.0
    assert psi[0] == 0.5 and psi[1] == 0.0 and not np.signbit(psi).any()
    assert dpsi_r[1] == 0.0 and np.signbit(dpsi_r[1])


def test_derivative_is_negative_zero_where_the_power_underflows():
    # where the power underflows or r * r overflows, psi is 0 and psi'(r) / r
    # is -0, with no "invalid value" warning, which the suite turns into an
    # error
    k = CuckerSmaleKernel(40.0)
    psi, dpsi_r = k.eval_with_deriv_sq(np.array([1.0, 1e300, math.inf]))
    assert dpsi_r[0] == -80.0 * 2.0**-41
    assert np.all(psi[1:] == 0.0) and not np.signbit(psi).any()
    assert np.all(dpsi_r[1:] == 0.0) and np.all(np.signbit(dpsi_r[1:]))


@settings(derandomize=True, database=None)
@given(r=st.floats(min_value=0.0, max_value=1e308, allow_nan=False,
                   allow_infinity=False),
       beta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.7, 40.0]))
def test_profile_is_the_closed_form_bit_for_bit(r, beta):
    # libm's pow, or at beta = 1 the correctly rounded reciprocal;
    # eval_with_deriv_sq's numpy array pow may differ in the last bit
    k = CuckerSmaleKernel(beta)
    value = k.profile(r)
    assert type(value) is float
    want = 1.0 / (1.0 + r * r) if beta == 1.0 else cucker_smale(beta)[0](r)
    assert float_bits(value) == float_bits(want)
    with np.errstate(over="ignore"):
        psi = k.eval_with_deriv_sq(np.square([r]))[0][0]
    assert abs(psi - value) <= math.ulp(value)


def test_beta_one_profile_is_the_forces_reciprocal():
    # libm's pow(x, -1) differs from the reciprocal in the last bit on about 1
    # in 1000 radii below 4, where the certificate's psi_star and the force's
    # weights then disagreed; both now take one IEEE division
    rng = np.random.default_rng(1)
    r = np.concatenate([[0.0, 5e-324, 1e-310, 1e-160, 1e154, 1.3e154, 1.4e154, 1e200,
                         1.7e308, math.inf],
                        rng.uniform(0.0, 4.0, 10**5), 10.0 ** rng.uniform(-170.0, 308.0, 10**5)])
    k = CuckerSmaleKernel(1.0)
    with np.errstate(over="ignore"):
        psi = k.eval_with_deriv_sq(r * r)[0]
    assert np.array([k.profile(x) for x in r]).tobytes() == psi.tobytes()


def test_beta_one_power_is_the_correctly_rounded_reciprocal():
    # IEEE division, not pow, is the reference, so this holds on any host
    rng = np.random.default_rng(0)
    q = np.concatenate([[0.0, 5e-324, 1e-300, 1e308, math.inf, math.nan],
                        rng.uniform(0.0, 2.0, 10**5),
                        10.0 ** rng.uniform(-20.0, 300.0, 10**5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, dpsi_r = CuckerSmaleKernel(1.0).eval_with_deriv_sq(q)
    want = 1.0 / (1.0 + q)
    assert psi.tobytes() == want.tobytes()
    assert dpsi_r.tobytes() == (-2.0 * (want / (1.0 + q))).tobytes()


# only bench/spans.py names the two readers below, until item 9a
def test_eval_and_eval_deriv_read_eval_with_deriv_sq():
    r = np.array([0.0, 5e-324, 1e-300, 0.3, 1.0, 2.0, 1e10, 1e154, 1e200, 1e308])
    for beta in (0.0, 0.25, 1.0, 40.0):
        k = CuckerSmaleKernel(beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, slope = k.eval(r), k.eval_deriv(r)
            assert k.eval(math.inf) == cucker_smale(beta)[0](math.inf)
            assert math.isnan(k.eval_deriv(math.inf))  # -0 * inf
            with np.errstate(over="ignore"):
                psi, dpsi_r = k.eval_with_deriv_sq(r * r)
                assert value.tobytes() == cucker_smale(beta)[0](r).tobytes()
        assert value.tobytes() == psi.tobytes()
        assert slope.tobytes() == (dpsi_r * r).tobytes()
        assert k.eval(1.0) == value[4] and k.eval(1.0).shape == ()
        for bad in (-0.1, np.array([0.5, -1e-9])):
            with pytest.raises(ValueError):
                k.eval(bad)
            with pytest.raises(ValueError):
                k.eval_deriv(bad)


def test_tabulated_profile_is_a_plain_float():
    k = TabulatedKernel([0.0, 1.0, 2.0], [1.0, 0.6, 0.3])
    for r in (0.0, 0.4, 1.0, 1.9, 2.0, 7.5):
        assert type(k.profile(r)) is float
    with pytest.raises(ValueError):
        k.profile(-0.1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(TABLES, st.lists(st.floats(0.0, 1.5), max_size=20))
def test_table_is_scipys_pchip_bit_for_bit(table, fractions):
    # scipy's PchipInterpolator through the nodes, clamped at the last radius
    # with derivative 0 from there on, and psi'/r = 0 at r = 0
    k = TabulatedKernel(*table)
    value, slope = radius_methods(k)
    q = np.square([*k.radii, *(f * k.radii[-1] for f in fractions)])
    psi, dpsi_r = k.eval_with_deriv_sq(q)
    r = np.sqrt(q)
    want = value(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_r = np.where(r > 0.0, slope(r) / r, 0.0)
    assert psi.tobytes() == want.tobytes()
    assert dpsi_r.tobytes() == want_r.tobytes()
    assert dpsi_r[0] == 0.0 and np.all(dpsi_r[r >= k.radii[-1]] == 0.0)
    assert [k.profile(x) for x in r] == want.tolist()


def test_tail_integral_far_field_power_law():
    # 1 + R^2 overflows above about 1.3e154, where the profile reads 0; a
    # panel quadrature stopped there early (245.823 for 246.020 at beta
    # 0.501, 4.35e-40 for 5.0e-40 at beta 0.6); the tail there is the power
    # law R^(1-2 beta) / (2 beta - 1) to double precision
    for beta, R in ((0.501, 1e154), (0.501, 1e200), (0.6, 1e200), (2.0, 1e160)):
        expected = R ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)
        assert CuckerSmaleKernel(beta).tail_integral(R) == pytest.approx(expected, rel=1e-13, abs=0.0)


# Closed forms at 50 digits as the accuracy oracle.
_BETAS = (0.1, 0.25, 0.49, 0.499, 0.5, 0.501, 0.51, 0.75, 1.0, 2.0, 5.0, 40.0)
_RADII = (0.0, *(float(r) for r in np.geomspace(1e-3, 1e4, 43)),
          1e6, 1e9, 1e19, 1e20, 1e21, 1e50, 1e100, 1e154, 1e155, 1e200)


def _mp_tail(beta, r):
    beta, r = mp.mpf(beta), mp.mpf(r)
    return (mp.beta(beta - 0.5, 0.5) / 2
            * mp.betainc(beta - 0.5, 0.5, 0, 1 / (1 + r * r), regularized=True))


def _mp_head(beta, r):
    """Integral of (1 + s^2)^-beta over [0, r] at 50 digits."""
    with mp.workdps(50):
        if beta == 0.0:
            return mp.mpf(r)
        if beta == 0.5:
            return mp.asinh(r)
        if beta < 0.5:
            return r * mp.hyp2f1(0.5, beta, 1.5, -mp.mpf(r) ** 2)
        return _mp_tail(beta, 0) - _mp_tail(beta, r)


def _mp_integral(beta, a, b):
    with mp.workdps(50):
        if beta > 0.5:  # tails keep their digits where the head is near its total
            return _mp_tail(beta, a) - _mp_tail(beta, b)
        return _mp_head(beta, b) - _mp_head(beta, a)


def _rel_err(got, exact):
    return abs(float((mp.mpf(got) - exact) / exact))


@pytest.mark.parametrize("beta", _BETAS)
def test_integral_and_tail_match_mpmath(beta):
    k = CuckerSmaleKernel(beta)
    for r in _RADII:
        head = _mp_head(beta, r)
        if head >= 1e-300:
            assert _rel_err(k.integral(0.0, r), head) <= 1e-13, r
        if beta > 0.5:
            with mp.workdps(50):
                tail = _mp_tail(beta, r)
            if tail >= 1e-300:
                assert _rel_err(k.tail_integral(r), tail) <= 1e-13, r
                assert k.integral(r, math.inf) == k.tail_integral(r)
    # between two radii the difference of antiderivative values can cancel;
    # the bound scales with that cancellation
    for a, b in ((0.3, 0.9), (0.9, 4.0), (2.0, 1e3), (0.5, 1e30)):
        with mp.workdps(50):
            ha, hb = _mp_head(beta, a), _mp_head(beta, b)
            exact = hb - ha
        cancel = float((ha + hb) / exact)
        assert _rel_err(k.integral(a, b), exact) <= 1e-13 * cancel, (a, b)
        assert k.integral(b, a) == -k.integral(a, b)


@pytest.mark.parametrize("beta", [0.75, 1.0, 40.0])
def test_integral_below_the_rounding_of_the_profile_is_the_width(beta):
    # where beta b^2 < 2^-53 the profile is 1 to rounding; the incomplete beta
    # function's difference there once lost digits from b = 1e-160 and was 0
    # below about 1.6e-162
    k = CuckerSmaleKernel(beta)
    for b in (1e-100, 1e-160, 1e-170, 1e-300):
        with mp.workdps(50):
            exact = mp.mpf(b) * mp.hyp2f1(0.5, beta, 1.5, -mp.mpf(b) ** 2)
        assert _rel_err(k.integral(0.0, b), exact) <= 1e-15, b
        assert k.integral(b / 4, b) == b - b / 4


def _mp_atan_integral(a, b):
    """atan b - atan a at 40 digits, for b > 1 as acot a - acot b: acot keeps
    its relative digits at large radii, where both arctangents near pi/2."""
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.atan(b) - mp.atan(a) if b <= 1 else mp.acot(a) - mp.acot(b)


def _assert_within_4_ulp(got, exact, where):
    assert abs(mp.mpf(got) - exact) <= 4 * math.ulp(float(exact)), where


def test_beta_one_integral_of_short_intervals_matches_mpmath():
    # the monitor's integral(x, x + D); a difference of two incomplete-beta
    # shares lost up to 2.4e-9 relative on x in [0.1, 10], D in [1e-6, 1e-3]
    k = CuckerSmaleKernel(1.0)
    rng = np.random.default_rng(2)
    for a in 10.0 ** rng.uniform(-5.0, 5.0, 400):
        for ratio in 10.0 ** np.linspace(-12.0, 2.0, 15):
            b = a + ratio * a
            _assert_within_4_ulp(k.integral(a, b), _mp_atan_integral(a, b), (a, b))


def test_beta_one_integral_where_a_b_overflows_matches_mpmath():
    # above about 1.3e154 the product a b overflows, and (b - a) / (1 + a b) read 0
    k = CuckerSmaleKernel(1.0)
    rng = np.random.default_rng(3)
    top = sys.float_info.max
    lows = [1e154, 1.0000000000000002e154, 1.3e154, 1.4e154, 1e300, 1.7e308,
            *(10.0 ** rng.uniform(154.0, 308.0, 300)).tolist()]
    for a in lows:
        for b in (a, math.nextafter(a, math.inf), a * 1.5, a * 1e3, top):
            b = min(b, top)
            _assert_within_4_ulp(k.integral(a, b), _mp_atan_integral(a, b), (a, b))


def test_beta_one_integral_at_its_edges_matches_mpmath():
    k = CuckerSmaleKernel(1.0)
    radii = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e154, 1e200, 1.7e308]
    for a in radii:
        # b = inf is the tail; a = 0 the head; a = b an empty interval
        _assert_within_4_ulp(k.integral(a, math.inf), _mp_atan_integral(a, mp.inf), a)
        _assert_within_4_ulp(k.integral(0.0, a), _mp_atan_integral(0.0, a), a)
        assert k.integral(a, a) == 0.0
    assert k.integral(0.0, math.inf) == k.tail_integral(0.0) == math.pi / 2
    assert k.integral(math.inf, math.inf) == 0.0


def test_tail_integral_subnormal_result_is_zero():
    # the tail at beta = 40 from 1e4 is 1.27e-318, below the normal range:
    # it comes out as 0, which the certificate reads as an underflowed tail
    with mp.workdps(50):
        assert 1e-318 < _mp_tail(40.0, 1e4) < 1.3e-318
    assert CuckerSmaleKernel(40.0).tail_integral(1e4) == 0.0


@pytest.mark.parametrize("beta", _BETAS)
def test_budget_radius_matches_mpmath(beta):
    k = CuckerSmaleKernel(beta)
    for a in (0.0, 0.05, 0.5, 3.0, 1e3):
        if beta > 0.5:
            budgets = [f * k.tail_integral(a) for f in (1e-6, 0.1, 0.5, 0.9)]
        else:
            budgets = [1e-6, 0.3, 3.0, 30.0]
        for budget in budgets:
            if budget < 1e-300:
                continue
            d = k.budget_radius(a, budget)
            with mp.workdps(50):
                if d == math.inf:
                    # the root lies beyond the float range
                    top = sys.float_info.max
                    assert _mp_integral(beta, a, top) < budget
                    continue
                # Newton's method on the 50-digit integral, from d
                root = mp.mpf(d)
                for _ in range(6):
                    gap = _mp_integral(beta, a, root) - budget
                    root -= gap * (1 + root * root) ** mp.mpf(beta)
                assert _rel_err(d, root) <= 1e-12, (a, budget)


def test_budget_radius_edge_budgets():
    k = CuckerSmaleKernel(1.0)
    assert k.budget_radius(2.0, 0.0) == 2.0
    # a budget below the rounding of integral(a, a) leaves d at a
    assert k.budget_radius(1.0, 1e-300) == 1.0
    # no finite radius absorbs a budget at or above the tail supply
    assert k.budget_radius(0.0, math.pi / 2) == math.inf


def test_tabulated_integral_matches_quadrature():
    radii = [0.0, 0.5, 1.3, 2.0]
    k = TabulatedKernel(radii, [1.0, 0.8, 0.35, 0.2])
    for a, b in ((0.0, 0.5), (0.2, 1.7), (0.0, 2.0), (1.0, 5.0), (2.0, 9.0), (3.0, 4.0)):
        nodes = [r for r in radii if a < r < b]
        oracle, _ = quad(k.profile, a, b, points=nodes or None, epsabs=1e-14, epsrel=1e-13)
        assert k.integral(a, b) == pytest.approx(oracle, rel=1e-12, abs=1e-14)
        assert k.integral(b, a) == -k.integral(a, b)
    assert k.integral(1.0, math.inf) == math.inf
    with pytest.raises(ValueError):
        k.integral(-1.0, 1.0)
