"""Observables, Gronwall solver, Lyapunov functional and certificate checks."""

import json
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits, frame_bits, record_per_slice
from flockdde import diagnostics
from flockdde.diagnostics import (
    _BLOCK_PAIRS,
    DiagnosticsFrame,
    FlockingMonitor,
    certify_flocking,
    diameters,
    fit_decay_rate,
    gronwall_rate,
    prehistory_frames,
    _diameter,
    _diameters,
    _pairwise_diameter,
    _records,
    _row_blocks,
)
from flockdde.cli import _json_text, execute_run
from flockdde.config import run_config_from_dict
from flockdde.dynamics import integrate
from flockdde.kernel import CuckerSmaleKernel, TabulatedKernel
from flockdde.state import (
    BoxDomain,
    ConstantVelocity,
    InitialDatum,
    LagrangianEnsemble,
    LinearVelocity,
    SineVelocity,
    discretize,
)


def frame_stub(t, d_v, d_x=1.0, max_speed=1.0):
    return DiagnosticsFrame(t=t, d_X=d_x, d_V=d_v, max_speed=max_speed,
                            lyapunov=math.nan, X_of_t=d_x, V_of_t=d_v,
                            min_detJ=1.0, max_velgrad_norm=0.0)


def prehistory_stubs(pre_t, pre_d_x, pre_d_v, r_v):
    """Prehistory frames of a (t, d_X, d_V) series, each with max_speed r_v."""
    return [frame_stub(float(t), float(dv), d_x=float(dx), max_speed=r_v)
            for t, dx, dv in zip(pre_t, pre_d_x, pre_d_v)]


class TestDiameters:
    def test_single_node(self):
        ens = SimpleNamespace(positions=np.zeros((1, 2)), velocities=np.zeros((1, 2)))
        assert diameters(ens) == (0.0, 0.0)

    def test_one_dimensional_pair(self):
        ens = SimpleNamespace(positions=np.array([[0.0], [1.0]]),
                              velocities=np.array([[0.0], [2.0]]))
        assert diameters(ens) == (1.0, 2.0)

    def test_three_four_five_triangle(self):
        ens = SimpleNamespace(positions=np.array([[0.0, 0.0], [3.0, 4.0]]),
                              velocities=np.zeros((2, 2)))
        d_x, d_v = diameters(ens)
        assert d_x == pytest.approx(5.0, abs=1e-15)
        assert d_v == 0.0


class TestGronwallRate:
    def test_zero_delay_returns_a_exactly(self):
        assert gronwall_rate(0.5, 0.0) == 0.5

    def test_unit_delay_reference_value(self):
        c = gronwall_rate(0.5, 1.0)
        assert c == pytest.approx(0.3149, abs=1e-4)
        # independent fixed-point check of the defining equation
        assert 1 - c == pytest.approx(0.5 * math.exp(c), abs=1e-12)

    def test_degenerate_small_a(self):
        assert gronwall_rate(1e-8, 2.0) < 1e-7

    @pytest.mark.parametrize("a", [1e-8, 1e-17, 2.83e-21])
    def test_tiny_a_keeps_its_relative_precision(self, a):
        # 1 - a rounds to 1 below a = 1.1e-16, where a bisection on the
        # residual 1 - C - (1 - a) e^(C tau) stopped at a / 2; the root is
        # a / (1 + tau) to first order in a
        tau = 0.1
        assert gronwall_rate(a, tau) == pytest.approx(a / (1 + tau), rel=1e-7, abs=0.0)

    def test_matches_a_50_digit_root_at_every_scale_of_a(self):
        # a from 1e-1 to the subnormal 1e-323: the residual solved in C / a
        # converges everywhere (brentq on C in (0, a) failed from about 1e-289
        # to 1e-157); a subnormal root is exact to its own spacing, 2^-1074
        for tau in [0.01, 0.1, 1.0, 10.0]:
            for k in range(1, 324):
                a = float(f"1e-{k}")
                c = gronwall_rate(a, tau)
                with mpmath.workdps(50):
                    A, T = mpmath.mpf(a), mpmath.mpf(tau)
                    x = mpmath.findroot(
                        lambda x: 1 - x - (1 - A) * mpmath.expm1(A * x * T) / A, c / a)
                    root = A * x
                    assert 0 < x <= 1
                    assert abs(c - root) <= 1e-13 * root + mpmath.mpf(2)**-1074, (a, tau)

    def test_large_contraction_times_delay_does_not_overflow(self):
        # a tau = 1000: exp(C tau) at C = a overflowed the float range
        c = gronwall_rate(0.5, 2000.0)
        assert 1 - c == pytest.approx(0.5 * math.exp(c * 2000.0), rel=1e-12)

    @pytest.mark.parametrize("tau", [1e200, 1e300])
    def test_huge_delay_root_keeps_its_digits(self, tau):
        # 1 - C rounds to 1, so C tau = -log(1 - a); an absolute tolerance of
        # 1e-300 on C / a stopped at 3.0e-301 for 3.57e-301
        assert gronwall_rate(0.3, tau) == pytest.approx(-math.log1p(-0.3) / tau,
                                                        rel=1e-13)

    def test_residual_below_target_on_grid(self):
        for a in np.linspace(0.05, 0.95, 10):
            for tau in np.linspace(0.0, 3.0, 10):
                c = gronwall_rate(float(a), float(tau))
                residual = abs(1 - c - (1 - a) * math.exp(c * tau))
                assert residual < 1e-12
                assert 0 < c < 1

    def test_root_is_bracketed_by_sign_change(self):
        a, tau = 0.7, 0.8
        c = gronwall_rate(a, tau)
        g = lambda x: 1 - x - (1 - a) * math.exp(x * tau)
        assert g(c - 1e-9) > 0 > g(c + 1e-9)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gronwall_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            gronwall_rate(1.0, 1.0)
        with pytest.raises(ValueError):
            gronwall_rate(0.5, -1.0)


class TestLyapunov:
    def test_flat_kernel_reduces_to_plain_integrals(self):
        # with psi == 1 the middle term is X(t-tau) - X(-tau) and V decays as
        # d_V(0) e^{-t}; replay synthetic exact-decay frames and compare
        kernel = CuckerSmaleKernel(0.0)
        tau = 0.5
        pre_t = np.linspace(-tau, 0.0, 6)
        pre_dv = np.full(6, 0.8)
        pre_dx = np.full(6, 1.0)
        mon = FlockingMonitor(kernel, prehistory_stubs(pre_t, pre_dx, pre_dv, 1.0))
        times = np.arange(1, 41) * 0.025
        values = []
        for t in times:
            dv = 0.8 * math.exp(-t)
            x, v, lyap = mon.observe(t, d_v=dv)
            # X(t) = X(0) + integral of d_V; middle term telescopes to X - X(0)
            window = v  # placeholder, checked via lyap identity below
            values.append((t, x, v, lyap))
        for t, x, v, lyap in values:
            x_delayed = 1.0 + 0.8 * (1 - math.exp(-max(t - tau, 0.0)))
            assert x == pytest.approx(1.0 + 0.8 * (1 - math.exp(-t)), abs=2e-4)
            # psi == 1 makes the V-recurrence source vanish: V(t) = d_V(0) e^{-t}
            assert v == pytest.approx(0.8 * math.exp(-t), rel=1e-5)

    def test_gap_wider_than_tau_gives_finite_lyapunov(self):
        kernel = CuckerSmaleKernel(1.0)
        mon = FlockingMonitor(kernel, prehistory_stubs([-1.0, 0.0], [1.0, 1.0], [0.5, 0.5], 1.0))
        # no frame lies inside the window (1.5, 2.5) or (2.5, 3.5)
        values = [mon.observe(t, d_v) for t, d_v in [(2.5, 0.1), (3.5, 0.05)]]
        assert np.all(np.isfinite(values))
        assert values[1][2] < values[0][2]

    def test_flat_kernel_lyapunov_constant_after_tau(self):
        # psi == 1 and d_V = d_V(0) e^{-t}: V keeps d_V, so Y - W stays put
        # and L, which changes by the change of Y - W at t - tau, is constant
        kernel = CuckerSmaleKernel(0.0)
        tau, dt = 0.5, 0.025
        pre_t = np.linspace(-tau, 0.0, 21)
        pre_dx = 1.0 + 0.3 * np.sin(5 * pre_t)
        mon = FlockingMonitor(kernel, prehistory_stubs(pre_t, pre_dx, 0.8 * np.exp(-pre_t), 1.0))
        lyap = [mon.observe(k * dt, 0.8 * math.exp(-k * dt))[2] for k in range(1, 401)]
        settled = lyap[round(tau / dt):]  # frames k with t_{k-1} >= tau
        assert len(settled) == 380
        assert np.ptp(settled) <= 1e-13 * abs(settled[0])

    def test_zero_delay_is_v_plus_the_kernel_integral(self):
        # at tau = 0 the delay window is empty: L = V + integral of psi from
        # d_X(0) to X(t), bit for bit
        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]),
                             SineVelocity([0.0], [0.3], [1.5]))
        kernel = CuckerSmaleKernel(1.0)
        res = integrate(discretize(datum, 0.0, 0.01), kernel, t_end=1.0, output_every=0.02)
        assert len(res.frames) == 51
        lower = res.frames[0].d_X
        for f in res.frames:
            assert f.lyapunov == f.V_of_t + kernel.integral(lower, f.X_of_t)

    def test_nonincreasing_along_heavy_tail_run(self):
        # gentle slope keeps the run subcritical so all 10^3 frames are emitted
        datum = InitialDatum(BoxDomain([0.0], [1.0], [12]),
                             SineVelocity([0.0], [0.4], [1.5]))
        res = integrate(discretize(datum, 0.2, 2e-3), CuckerSmaleKernel(0.25),
                        t_end=2.0, output_every=2e-3)
        assert res.blowup is None
        lyap = [f.lyapunov for f in res.frames]
        assert len(lyap) >= 1000
        diffs = np.diff(lyap)
        assert np.all(diffs <= 1e-6)


class TestCertificate:
    def prehistory(self, tau=0.2, beta=0.25, amp=0.3, n=10):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [n]),
                             SineVelocity([0.0], [amp], [3.0]))
        buf = discretize(datum, tau, tau / 20 if tau > 0 else 0.01)
        return prehistory_frames(buf)

    def test_already_flocked_datum_trivially_certified(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), ConstantVelocity([0.9]))
        buf = discretize(datum, 0.5, 0.05)
        cert = certify_flocking(prehistory_frames(buf), CuckerSmaleKernel(1.0))
        assert cert.satisfied
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        # zero budget: d_star collapses onto the lower limit d_X(-tau) + R_V tau
        pre = prehistory_frames(buf)
        assert cert.d_star == pytest.approx(pre[0].d_X + cert.r_v * 0.5, abs=1e-9)
        assert cert.predicted_rate == pytest.approx(
            gronwall_rate(cert.psi_star, 0.5), abs=1e-12)

    def test_heavy_tail_always_certified(self):
        frames = self.prehistory(tau=1.0, amp=0.8)
        cert = certify_flocking(frames, CuckerSmaleKernel(0.25))
        assert math.isinf(cert.rhs)
        assert cert.satisfied
        assert cert.predicted_rate > 0
        # budget identity: integral of the profile from the lower limit to
        # d_star reproduces lhs
        from scipy.integrate import quad
        lower = frames[0].d_X + cert.r_v * 1.0
        val, _ = quad(CuckerSmaleKernel(0.25).eval, lower, cert.d_star,
                      epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(cert.lhs, abs=1e-9)

    def test_thin_tail_budget_exceeds_supply(self):
        # lhs = 1.0 against rhs = pi/4 from lower limit 1.0 (closed form)
        frames = [frame_stub(-1.0, d_v=0.5, d_x=0.5, max_speed=0.5),
                  frame_stub(0.0, d_v=0.5, d_x=0.5, max_speed=0.5)]
        cert = certify_flocking(frames, CuckerSmaleKernel(1.0))
        assert cert.lhs == pytest.approx(1.0, abs=1e-12)
        assert cert.rhs == pytest.approx(math.pi / 4, abs=1e-9)
        assert not cert.satisfied
        assert cert.d_star is None

    def test_shuffled_prehistory_gives_the_same_certificate(self):
        frames = self.prehistory(tau=0.1, beta=1.0, amp=0.1)
        shuffled = list(frames)
        np.random.default_rng(3).shuffle(shuffled)
        assert [f.t for f in shuffled] != [f.t for f in frames]
        kernel = CuckerSmaleKernel(1.0)
        cert = certify_flocking(frames, kernel)
        assert cert.satisfied and certify_flocking(shuffled, kernel) == cert

    def test_off_grid_delay_has_one_tau(self, monkeypatch):
        # 3 * 0.3 = 0.8999999999999999: the certificate and the run both take
        # tau from the frames, so lhs is the first frame's L(0) bit for bit
        # and the tail starts at the monitor's X(-tau) + R_V tau
        doc = {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
               "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [8]},
                         "velocity": {"family": "sine-perturbation", "base": [0.0],
                                      "amplitude": [0.125], "wavenumber": [2.0],
                                      "phase": [0.5]}},
               "tau": 0.9, "step": 0.3, "t_end": 0.9, "output_every": 0.3}
        cfg = run_config_from_dict(doc)
        lowers = []
        tail = cfg.kernel.tail_integral
        monkeypatch.setattr(cfg.kernel, "tail_integral", lambda r: lowers.append(r) or tail(r))
        result, summary = execute_run(cfg)
        pre = prehistory_frames(discretize(cfg.datum, cfg.tau, cfg.step))
        monitor = FlockingMonitor(cfg.kernel, pre)
        assert monitor.tau == 3 * 0.3 != cfg.tau
        assert summary["certificate"]["lhs"] == result.frames[0].lyapunov
        assert lowers == [monitor.lower] != [pre[0].d_X + monitor.r_v * cfg.tau]

    def test_tabulated_kernel_certified_on_its_infinite_tail(self):
        # the profile is constant past the last node, so its tail diverges
        # and the budget is absorbed at a finite radius
        frames, kernel = self.prehistory(), TabulatedKernel([0.0, 1.0], [1.0, 0.5])
        cert = certify_flocking(frames, kernel)
        lower = FlockingMonitor(kernel, frames).lower
        assert cert.rhs == math.inf and cert.satisfied
        assert cert.d_star == kernel.budget_radius(lower, cert.lhs) > lower
        assert kernel.integral(lower, cert.d_star) == pytest.approx(cert.lhs, rel=1e-14)
        assert cert.psi_star == kernel.profile(cert.d_star)
        assert cert.predicted_rate == gronwall_rate(cert.psi_star, 0.2)

    def test_json_mapping_inf_encoding(self):
        cert = certify_flocking(self.prehistory(), CuckerSmaleKernel(0.25))
        d = cert.to_dict()
        # the dict keeps the float; the JSON writer's one rule makes it "inf"
        assert d["rhs"] == math.inf
        assert json.loads(_json_text(d))["rhs"] == "inf"
        assert isinstance(d["lhs"], float)
        assert set(d) == {"R_V", "lhs", "rhs", "satisfied", "d_star", "psi_star",
                          "predicted_rate"}

    def test_finite_rhs_budget_identity(self):
        from scipy.integrate import quad
        frames = self.prehistory(tau=0.1, beta=1.0, amp=0.1)
        kernel = CuckerSmaleKernel(1.0)
        cert = certify_flocking(frames, kernel)
        assert cert.satisfied and math.isfinite(cert.rhs)
        lower = frames[0].d_X + cert.r_v * 0.1
        val, _ = quad(kernel.eval, lower, cert.d_star, epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(cert.lhs, abs=1e-9)
        assert 0 < cert.predicted_rate < 1

    def test_certificate_soundness_strong_diameter_bound(self):
        # certified runs must keep sup d_X below d_star - R_V * tau
        tau, kernel = 0.2, CuckerSmaleKernel(0.5)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]),
                             SineVelocity([0.0], [0.3], [1.5]))
        buf = discretize(datum, tau, 2e-3)
        pre = prehistory_frames(buf)
        cert = certify_flocking(pre, kernel)
        assert cert.satisfied
        res = integrate(buf, kernel, t_end=10.0, output_every=0.02, prehistory=pre)
        assert res.blowup is None
        sup_dx = max(f.d_X for f in res.frames)
        assert sup_dx <= cert.d_star - cert.r_v * tau + 1e-6


class TestDiameterVsComparison:
    def test_d_v_below_v_along_certified_run(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]), LinearVelocity([[0.4]]))
        res = integrate(discretize(datum, 0.1, 2e-3), CuckerSmaleKernel(0.5),
                        t_end=3.0, output_every=0.01)
        for f in res.frames:
            assert f.d_V <= f.V_of_t + 1e-6


class TestFitDecayRate:
    def test_flat_kernel_run_rate_one(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), LinearVelocity([[0.5]]))
        res = integrate(discretize(datum, 0.5, 2e-3), CuckerSmaleKernel(0.0),
                        t_end=3.0, output_every=0.01)
        rate = fit_decay_rate(res.frames, 0.0, 3.0)
        assert rate == pytest.approx(1.0, abs=1e-3)

    def test_synthetic_constant_series_rate_zero(self):
        frames = [frame_stub(t, d_v=2.5) for t in np.linspace(0, 5, 11)]
        assert fit_decay_rate(frames, 0.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_exponential_series(self):
        frames = [frame_stub(t, d_v=3.0 * math.exp(-0.25 * t))
                  for t in np.linspace(0, 8, 30)]
        assert fit_decay_rate(frames, 0.0, 8.0) == pytest.approx(0.25, abs=1e-9)

    def test_collapsed_series_reports_infinity(self):
        frames = [frame_stub(t, d_v=0.0) for t in np.linspace(0, 1, 5)]
        assert fit_decay_rate(frames, 0.0, 1.0) == math.inf

    def test_not_ready_with_two_frames(self):
        frames = [frame_stub(0.0, 1.0), frame_stub(1.0, 0.5)]
        assert fit_decay_rate(frames, 0.0, 1.0) is None


def _naive_diameter(arr):
    with np.errstate(invalid="ignore", over="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())


def _hypot_diameter(arr):
    """Pairwise maximum of ``math.hypot``, which squares nothing out of range."""
    return max(math.hypot(*(a - b)) for a in arr for b in arr)


def _within_ulps(got, want, ulps=2):
    return abs(got - want) <= ulps * math.ulp(want)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def _slice_diameter(arr):
    """The diameter of one (N, d) slice, reduced as ``diameters`` reduces it."""
    return float(_diameters(arr[None])[0])


# the largest N whose N x N pairs fit one block of the pairwise layers
SIDE = math.isqrt(_BLOCK_PAIRS)


class TestBlockedDiameters:
    @pytest.mark.parametrize("n", [1, SIDE - 1, SIDE, SIDE + 1, 2 * SIDE + 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_naive_max(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        # wide dynamic range, so rounding differences would show
        arr = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))
        got = diameters(SimpleNamespace(positions=arr, velocities=arr[::-1]))
        assert got[0] == _naive_diameter(arr)
        assert got[1] == _naive_diameter(arr[::-1])

    @pytest.mark.parametrize("n", [1, SIDE + 1, 2 * SIDE + 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_and_overflow_match_naive(self, n, bad):
        # a non-finite slice keeps the naive value; 1e200, whose square
        # overflows, gets the exact diameter
        rng = np.random.default_rng(n)
        for row in sorted({0, n // 2, n - 1}):
            arr = rng.normal(size=(n, 2))
            arr[row, 1] = bad
            d_x, _ = diameters(SimpleNamespace(positions=arr, velocities=arr))
            if math.isfinite(bad):
                assert _within_ulps(d_x, _hypot_diameter(arr)), (row, d_x)
            else:
                assert _same_float(d_x, _naive_diameter(arr)), (row, d_x)

    @pytest.mark.parametrize("n", [1, SIDE, SIDE + 1, 2 * SIDE + 3, _BLOCK_PAIRS + 1])
    def test_row_blocks_partition_rows_by_shape_alone(self, n):
        blocks = _row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop >= n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        rows = blocks[0].stop - blocks[0].start
        assert rows * n <= max(_BLOCK_PAIRS, n)
        assert (n <= SIDE) == (len(blocks) == 1)


@st.composite
def point_sets(draw):
    """Up to 300 points in 1-3 dimensions at scales 1e-150 to 1e150, off the
    origin: clouds, repeated points, collinear, all-equal, single-point and
    ring sets."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["cloud", "repeated", "collinear", "equal",
                                 "single", "ring"]))
    n = 1 if kind == "single" else draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("cloud", "single"):
        unit = rng.normal(size=(n, d))
    elif kind == "repeated":
        distinct = rng.normal(size=(int(rng.integers(1, 6)), d))
        unit = distinct[rng.integers(0, len(distinct), n)]
    elif kind == "collinear":
        unit = rng.normal(size=(n, 1)) * rng.normal(size=d)
    elif kind == "equal":
        unit = np.zeros((n, d))
    else:
        angle = rng.uniform(0.0, 2 * math.pi, n)
        unit = np.stack([np.cos(angle), np.sin(angle), np.zeros(n)], axis=1)[:, :d]
    offset = rng.normal(size=d) * 10.0 ** draw(st.integers(-3, 3))
    return (unit + offset) * 10.0 ** draw(st.integers(-150, 150))


def test_diameter_bit_identical_to_naive_on_generated_sets(time_limit):
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(point_sets())
    def check(arr):
        assert _slice_diameter(arr) == _naive_diameter(arr)

    with time_limit(10):
        check()


@st.composite
def slice_stacks(draw):
    """K slices of N nodes in 1-3 dimensions, each at its own scale from
    1e-300 to 1e300 (tangent flow 1e-150 to 1e150, so no square of it
    overflows), some entries NaN or +-inf."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def arr(shape, top):
        scale = 10.0 ** rng.integers(-top, top + 1, (k,) + (1,) * len(shape))
        a = rng.normal(size=(k, *shape)) * scale
        if draw(st.booleans()):
            a[rng.random(a.shape) < 0.05] = rng.choice([math.nan, math.inf, -math.inf])
        return a

    return LagrangianEnsemble(
        np.arange(k) * 0.25, arr((n, d), 300), arr((n, d), 300), arr((n, d, d), 150),
        arr((n, d, d), 150), np.full(n, 1.0 / n), np.zeros((n, d)), np.ones(n))


def test_stacked_records_equal_per_slice_records(time_limit):
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(slice_stacks())
    def check(stack):
        dets = stack.det_jacobians()
        d_x, d_v = diameters(stack)
        got = _records(stack, d_x, d_v, dets, lambda t, dx, dv: (dx, dv, math.nan))
        assert len(got) == len(stack.time)
        for i, frame in enumerate(got):
            ens = LagrangianEnsemble(float(stack.time[i]), stack.positions[i],
                                     stack.velocities[i], stack.jacobians[i],
                                     stack.vel_gradients[i], stack.masses,
                                     stack.labels, stack.cell_volumes)
            want_x, want_v = diameters(ens)  # a stack of one
            assert float_bits(float(d_x[i])) == float_bits(want_x)
            assert float_bits(float(d_v[i])) == float_bits(want_v)
            assert dets[i].tobytes() == ens.det_jacobians().tobytes()
            want = record_per_slice(ens, frame.d_X, frame.d_V, frame.d_X, frame.d_V,
                                    math.nan, ens.det_jacobians())
            assert frame_bits(frame) == frame_bits(want)

    with time_limit(20):
        check()


class TestDiameterRange:
    @pytest.mark.parametrize("spread", [1e-160, 1e300])
    @pytest.mark.parametrize("d", [1, 2])
    def test_spread_whose_square_leaves_the_float_range(self, spread, d):
        # the squares of these spreads underflow to subnormals or overflow
        rng = np.random.default_rng(d)
        arr = rng.uniform(-0.5, 0.5, (20, d)) * spread
        assert _within_ulps(_slice_diameter(arr), _hypot_diameter(arr))

    def test_constant_axis_far_from_the_origin(self):
        # scaling the spread of 1e-160 up would overflow the constant 1e300
        arr = np.array([[1e300, 0.0], [1e300, 1e-160], [1e300, 3e-160]])
        assert _slice_diameter(arr) == 3e-160

    def test_diameter_above_the_float_range_is_inf(self):
        arr = np.array([[0.0, 0.0], [1.5e308, 1.5e308]])
        assert _slice_diameter(arr) == math.inf
        assert _slice_diameter(np.array([[-1e308], [1e308]])) == math.inf

    def test_prune_forms_under_one_percent_of_the_pairs(self, monkeypatch):
        # counts work, not time: a prune that stopped pruning would form all
        # n (n + 1) / 2 pairs and still return the right value
        n = 4096
        arr = np.random.default_rng(0).normal(size=(n, 2))
        want = _pairwise_diameter(arr)
        distances = diagnostics._sq_distances
        pairs = []

        def counted(a, b):
            pairs.append(len(a) * len(b))
            return distances(a, b)

        monkeypatch.setattr(diagnostics, "_sq_distances", counted)
        assert _diameter(arr) == want
        assert 0 < sum(pairs) < 0.01 * n * (n + 1) / 2


class TestTailBudgetBracket:
    @staticmethod
    def far_frames(d_x, d_v):
        return [frame_stub(-0.1, d_v, d_x=d_x, max_speed=0.0),
                frame_stub(0.0, d_v, d_x=d_x, max_speed=0.0)]

    def test_large_lower_limit_brackets(self, time_limit):
        # a + 1 == a at a = 1e17: a bracket grown as a + 2 (hi - a) stays at
        # width 0 and once ran out of doublings
        with time_limit(10):
            cert = certify_flocking(self.far_frames(1e17, 1e-4),
                                    CuckerSmaleKernel(0.6))
        assert cert.satisfied
        assert 1e17 < cert.d_star < math.inf
        assert 0.0 < cert.predicted_rate < 1.0

    def test_underflowed_profile_gives_zero_rate(self, time_limit):
        # (1 + 1e340)^-1 is 0 in floating point, while the tail model still
        # supplies 5e-171 > lhs: d_star stays at the limit with psi_star 0
        with time_limit(10):
            cert = certify_flocking(self.far_frames(1e170, 1e-171),
                                    CuckerSmaleKernel(1.0))
        assert cert.satisfied
        assert cert.psi_star == 0.0 and cert.predicted_rate == 0.0

    @pytest.mark.parametrize("beta,d_x,d_v", [(0.6, 1e17, 1e-4), (1.0, 1e170, 1e-171),
                                              (1.0, 0.5, 0.05), (0.0, 1.0, 0.2),
                                              # the budget outlasts the float range
                                              (0.5000001, 1.0, 1000.0)])
    def test_psi_star_is_the_scalar_profile(self, monkeypatch, beta, d_x, d_v):
        kernel = CuckerSmaleKernel(beta)
        want = certify_flocking(self.far_frames(d_x, d_v), kernel)
        assert want.satisfied
        assert want.psi_star == float(kernel.eval(want.d_star))

        def no_array_eval(self, r):
            raise AssertionError("certify_flocking called the array eval")

        monkeypatch.setattr(CuckerSmaleKernel, "eval", no_array_eval)
        assert certify_flocking(self.far_frames(d_x, d_v), kernel) == want


def _rule_weights(dt):
    """The two-point rule on [t, t + dt], exact for 1 and e^{-t}."""
    e = -math.expm1(-dt)
    b = (dt - e) / e
    return dt - b, b


class _NaiveMonitor:
    """Reference: the monitor's rule on series that keep every frame."""

    def __init__(self, kernel, tau, pre_times, pre_d_x, pre_d_v, r_v):
        self.kernel = kernel
        self.tau = float(tau)
        self.r_v = float(r_v)
        self._times = [float(t) for t in pre_times]
        self._d_v = [float(v) for v in pre_d_v]
        self._x = [float(v) for v in pre_d_x]
        self._v = list(self._d_v)
        self._y = [0.0]
        for k in range(1, len(self._times)):
            a, b = _rule_weights(self._times[k] - self._times[k - 1])
            self._y.append(self._y[-1] + (a * self._d_v[k - 1] + b * self._d_v[k]))
        self._w = list(self._y)
        self._x_base = self._x[0] + self.r_v * self.tau

    def _at(self, series, t):
        return float(np.interp(t - self.tau, self._times, series))

    def _lyapunov(self, t):
        upper = self._at(self._x, t) + self.r_v * self.tau
        middle = self.kernel.integral(self._x_base, upper)
        return self._v[-1] + middle + (self._w[-1] - self._at(self._w, t))

    def start(self):
        return self._x[-1], self._v[-1], self._lyapunov(0.0)

    def observe(self, t, d_v):
        t_prev = self._times[-1]
        a, b = _rule_weights(t - t_prev)
        growth = a * self._d_v[-1] + b * d_v
        self._times.append(float(t))
        self._d_v.append(float(d_v))
        self._x.append(self._x[-1] + growth)
        self._y.append(self._y[-1] + growth)
        x = self._at(self._x, t_prev) + self.r_v * self.tau
        d = self._at(self._y, t) - self._at(self._y, t_prev)
        v = ((1.0 - a) * self._v[-1] + d - self.kernel.integral(x, x + d)) / (1.0 + b)
        self._w.append(self._w[-1] + (a * self._v[-1] + b * v))
        self._v.append(v)
        return self._x[-1], v, self._lyapunov(t)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _monitor_case(name):
    """(kernel, tau, prehistory (t, d_X, d_V), r_v, frames (t, d_V))."""
    rng = np.random.default_rng(7)
    if name == "uneven-cadence":
        tau = 0.3
        pre_t = np.linspace(-tau, 0.0, 7)
        # steps above tau leave windows with no frame inside them
        times = np.cumsum(rng.uniform(0.004, 0.4, 300))
    elif name == "off-cadence-blowup":
        tau = 0.05
        pre_t = np.linspace(-tau, 0.0, 11)
        times = np.append(np.arange(1, 201) * 0.01, 2.0037)
    elif name == "coarse-prehistory":
        tau = 0.2
        pre_t = np.linspace(-tau, 0.0, 3)
        times = np.arange(1, 301) * 0.01
    elif name == "zero-delay":
        tau = 0.0
        pre_t = np.array([0.0])
        times = np.cumsum(rng.uniform(0.001, 0.05, 300))
    elif name == "flat-kernel":
        tau = 0.1
        pre_t = np.linspace(-tau, 0.0, 21)
        times = np.arange(1, 301) * 0.005
    elif name == "sparse-window":
        tau = 1.0
        pre_t = np.array([-1.0, 0.0])
        times = np.array([2.5, 2.6, 3.9, 4.0])
    elif name == "tabulated-kernel":
        tau = 0.2
        pre_t = np.linspace(-tau, 0.0, 11)
        times = np.arange(1, 301) * 0.01
    beta = 0.0 if name == "flat-kernel" else 1.5
    pre_dx = rng.uniform(0.5, 2.0, len(pre_t))
    pre_dv = rng.uniform(0.2, 1.0, len(pre_t))
    d_v = rng.uniform(0.0, 1.0, len(times)) * np.exp(-times)
    if name == "off-cadence-blowup":
        d_v[-1] = 1e6
    kernel = CuckerSmaleKernel(beta)
    if name == "tabulated-kernel":
        # the Lyapunov middle term runs from 1.6 to between 0.67 and 2.0:
        # both orientations, inside the table and beyond its last node
        kernel = TabulatedKernel([0.0, 0.5, 1.1, 1.8], [1.0, 0.7, 0.4, 0.3])
    return kernel, tau, (pre_t, pre_dx, pre_dv), 0.8, list(zip(times, d_v))


class TestWindowedMonitor:
    @pytest.mark.parametrize("name", ["uneven-cadence", "off-cadence-blowup",
                                      "coarse-prehistory", "zero-delay",
                                      "flat-kernel", "sparse-window",
                                      "tabulated-kernel"])
    def test_bit_identical_to_naive_monitor(self, name):
        kernel, tau, pre, r_v, frames = _monitor_case(name)
        mon = FlockingMonitor(kernel, prehistory_stubs(*pre, r_v))
        ref = _NaiveMonitor(kernel, tau, *pre, r_v)
        assert _bits(mon.start()) == _bits(ref.start())
        for t, d_v in frames:
            assert _bits(mon.observe(t, d_v)) == _bits(ref.observe(t, d_v)), t

    @pytest.mark.parametrize("name", ["uneven-cadence", "zero-delay", "sparse-window"])
    def test_three_interpolations_per_frame_without_start(self, name, monkeypatch):
        # X and Y at the previous frame's t - tau come from that frame's reads
        # (or, for the first frame, the constructor's), never read again
        kernel, tau, pre, r_v, frames = _monitor_case(name)
        mon = FlockingMonitor(kernel, prehistory_stubs(*pre, r_v))
        ref = _NaiveMonitor(kernel, tau, *pre, r_v)
        calls, interp = [], np.interp
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(args[0]) or interp(*args))
        for t, d_v in frames:
            calls.clear()
            got = mon.observe(t, d_v)
            assert len(calls) == 3
            assert _bits(got) == _bits(ref.observe(t, d_v)), t

    def test_stored_window_stays_bounded(self):
        tau, dt = 0.1, 0.005
        pre_t = np.linspace(-tau, 0.0, 21)
        mon = FlockingMonitor(CuckerSmaleKernel(1.0),
                              prehistory_stubs(pre_t, np.ones(21), np.full(21, 0.5), 0.5))
        for k in range(1, 20001):
            mon.observe(k * dt, 0.5 * math.exp(-k * dt))
        # the record runs from the last frame at or before t_prev - tau to t,
        # round(tau / dt) + 2 frames here; the bound leaves one frame spare
        assert mon._rows.shape[1] <= round(tau / dt) + 3

    @pytest.mark.parametrize("tau,n", [(0.0, 1), (0.1, 11), (0.5, 51), (1.0, 101)])
    def test_fixed_kernel_work_per_frame(self, tau, n, monkeypatch):
        # two integrals per frame (the source and the middle term) and no
        # profile, whether the window holds 1, 10, 50 or 100 frames
        kernel = CuckerSmaleKernel(1.0)
        pre_t = np.linspace(-tau, 0.0, n)
        mon = FlockingMonitor(kernel, prehistory_stubs(pre_t, np.ones(n), np.full(n, 0.5), 0.5))
        mon.start()
        calls = []
        integral = kernel.integral
        monkeypatch.setattr(kernel, "integral", lambda a, b: calls.append(a) or integral(a, b))
        monkeypatch.setattr(kernel, "profile", lambda r: pytest.fail("profile called"))
        for k in range(1, 151):
            mon.observe(k * 0.01, 0.5 * math.exp(-k * 0.01))
            assert len(calls) == 2 * k
