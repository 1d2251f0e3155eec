"""Critical-threshold classifier, slope evolution and the blow-up time."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cucker_smale, newest_force, prehistory_r_v
from flockdde.cli import execute_run, main
from flockdde.config import preset_dict, run_config_from_dict
from flockdde.dynamics import BlowupSignal, _blowup_node, integrate, step
from flockdde.kernel import CuckerSmaleKernel, TabulatedKernel
from flockdde.state import (
    BoxDomain,
    ConstantVelocity,
    InitialDatum,
    LinearVelocity,
    VelocityField,
    discretize,
)
from flockdde.threshold1d import (
    classify,
    evolve_w,
    reconstruct_density,
)


def riccati_w(w0, t):
    """Closed form of w' = -w - w^2 (flat-kernel slope dynamics)."""
    e = math.exp(-t)
    return w0 * e / (1 + w0 * (1 - e))


class TestClassify:
    def test_flat_kernel_moderate_slope_global(self):
        v = classify(-0.5, CuckerSmaleKernel(0.0), r_v=1.0)
        assert v.c_bar == 0.0
        assert v.w1_minus == -1.0
        assert v.w2_minus == -1.0
        assert v.verdict == "global-existence"

    def test_flat_kernel_steep_slope_blowup_bound(self):
        v = classify(-2.0, CuckerSmaleKernel(0.0), r_v=1.0)
        assert v.verdict == "finite-time-blowup"
        assert v.bound == pytest.approx(1.0, abs=1e-15)

    def test_radical_arithmetic(self):
        # C_bar = 2 * (2 beta) * R_V = 0.125 for beta = 0.125, R_V = 0.25
        v = classify(-0.2, CuckerSmaleKernel(0.125), r_v=0.25)
        assert v.c_bar == pytest.approx(0.125, abs=1e-15)
        assert v.w1_minus == pytest.approx((-1 - math.sqrt(0.5)) / 2, abs=1e-15)
        assert v.verdict == "global-existence"

    def test_gap_between_roots_is_indeterminate(self):
        # C_bar = 0.125: roots at about -0.854 and -1.112 leave a real gap
        v = classify(-1.0, CuckerSmaleKernel(0.125), r_v=0.25)
        assert v.w1_minus is not None
        assert v.w2_minus < -1.0 < v.w1_minus
        assert v.verdict == "indeterminate"
        assert v.bound is None

    def test_supercritical_case_with_forcing(self):
        v = classify(-3.0, CuckerSmaleKernel(0.5), r_v=0.5)
        # C_bar = 2 * 1.0 * 0.5 = 1 -> w2_minus = (-1 - sqrt(5)) / 2
        assert v.w1_minus is None
        assert v.w2_minus == pytest.approx((-1 - math.sqrt(5)) / 2, abs=1e-15)
        assert v.verdict == "finite-time-blowup"
        assert v.bound == pytest.approx(1 / (v.w2_minus + 3.0), abs=1e-12)

    def test_tabulated_kernel_classifies_with_its_bound(self):
        # one linear piece from 1 to 1/2: |p'| / p <= 0.5 / 0.5 = 1, so
        # C_bar = 2 and w2_minus = (-1 - 3) / 2
        v = classify(-2.5, TabulatedKernel([0.0, 1.0], [1.0, 0.5]), r_v=1.0)
        assert v.c_bar == 2.0 and v.w1_minus is None and v.w2_minus == -2.0
        assert v.verdict == "finite-time-blowup" and v.bound == 2.0
        assert "2*beta" not in v.note and "C_bar" in v.note

    def test_note_records_alternative_constants(self):
        # the Cucker-Smale note is the one every earlier summary.json carries
        v = classify(-0.5, CuckerSmaleKernel(0.0), r_v=1.0)
        assert v.note == (
            "classification uses C_psi = 2*beta and roots (-1 -/+ sqrt(1 -/+ 4*C_bar))/2; "
            "the sharper elementary bound |psi'| <= beta*psi would halve C_bar, and an "
            "alternative convention pairs sqrt(1 + C_bar) with the condition C_bar <= 1")


class TestEvolveW:
    def run_buffer(self, slope, n=16, tau=0.1):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [n]), LinearVelocity([[slope]]))
        return discretize(datum, tau, 1e-3)

    def test_flat_kernel_matches_riccati_closed_form(self):
        buf = self.run_buffer(-0.5)
        evo = evolve_w(buf, CuckerSmaleKernel(0.0), t_end=2.0)
        assert evo.blowup is None
        exact = np.array([riccati_w(-0.5, t) for t in evo.times])
        err = np.abs(evo.w - exact[:, None]).max()
        assert err <= 1e-8

    def test_supercritical_slope_blows_up_at_log_ratio(self):
        # w' = -w - w^2 with w0 = -2 loses the Jacobian at t = ln 2, inside
        # the classifier bound 1/(w2_minus - w0) = 1
        buf = self.run_buffer(-2.0)
        evo = evolve_w(buf, CuckerSmaleKernel(0.0), t_end=2.0)
        assert evo.blowup is not None
        t_star, node = evo.blowup
        assert t_star == pytest.approx(math.log(2.0), abs=5e-3)
        assert t_star <= 1.0

    def test_zero_slope_rigid_translation(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), ConstantVelocity([0.4]))
        buf = discretize(datum, 0.1, 1e-3)
        evo = evolve_w(buf, CuckerSmaleKernel(1.0), t_end=0.5)
        assert np.abs(evo.w).max() <= 1e-14

    def test_dimension_guard(self):
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [3, 3]),
                             ConstantVelocity([0.0, 0.0]))
        buf = discretize(datum, 0.0, 1e-3)
        with pytest.raises(ValueError):
            evolve_w(buf, CuckerSmaleKernel(0.0), t_end=0.1)

    def test_subcritical_floor_with_forcing(self):
        # 4 C_bar = 4 * (2 beta) * 2 R_V = 0.7 <= 1, slopes start above the
        # subcritical root and must stay above it (small tolerance)
        beta, box_hi, slope = 0.25, 0.25, -0.7
        datum = InitialDatum(BoxDomain([0.0], [box_hi], [12]),
                             LinearVelocity([[slope]]))
        buf = discretize(datum, 0.05, 1e-3)
        r_v = prehistory_r_v(buf)
        verdict = classify(slope, CuckerSmaleKernel(beta), r_v)
        assert verdict.verdict == "global-existence"
        evo = evolve_w(buf, CuckerSmaleKernel(beta), t_end=5.0)
        assert evo.blowup is None
        assert evo.w.min() >= verdict.w1_minus - 1e-4

    def test_off_grid_t_end_rejected(self):
        buf = self.run_buffer(-0.5)
        for t_end in (0.0105, -1e-3):
            with pytest.raises(ValueError, match="not a step"):
                evolve_w(buf, CuckerSmaleKernel(0.0), t_end=t_end)
        assert buf.clock == 0

    def test_blowup_event_is_the_integrators(self):
        # one rule, one loop: the slope evolution stops at the step, and on
        # the node, at which integrate stops, and reports the same event
        doc = dict(preset_dict("riccati-blowup"), output_every=1e-3)
        doc["datum"]["domain"]["counts"] = [16]
        cfg = run_config_from_dict(doc)
        res, _ = execute_run(cfg)
        evo = evolve_w(discretize(cfg.datum, cfg.tau, cfg.step), cfg.kernel,
                       t_end=cfg.t_end)
        last = res.frames[-1]
        assert last.status == "blowup"
        assert evo.blowup == res.blowup
        assert res.blowup.node == _blowup_node(res.buffer.latest.det_jacobians())
        assert res.frames[-2].t < res.blowup.time <= last.t
        assert evo.times[-1] == res.frames[-2].t

    def test_quotient_matches_independently_integrated_slope(self):
        # integrate w' = g(t) - w - w^2 per node, with g the simulated
        # position-gradient of the alignment term sampled along the run
        from scipy.interpolate import CubicSpline

        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]),
                             LinearVelocity([[-0.4]]))
        kernel = CuckerSmaleKernel(1.0)
        h, t_end = 1e-3, 1.0
        buf = discretize(datum, 0.1, 1e-3)
        times, g_rows, w_rows = [], [], []
        while buf.current_time < t_end - h / 2:
            cur = buf.latest
            _, force_grad, _ = newest_force(buf, kernel)
            g_euler = force_grad[:, 0, 0] / cur.jacobians[:, 0, 0]
            times.append(cur.time)
            g_rows.append(g_euler)
            w_rows.append(cur.vel_gradients[:, 0, 0] / cur.jacobians[:, 0, 0])
            step(buf, kernel)
        g_spline = CubicSpline(np.array(times), np.array(g_rows), axis=0)
        w = w_rows[0].copy()
        for t in times[:-1]:
            def f(s, y):
                return g_spline(s) - y - y * y
            k1 = f(t, w)
            k2 = f(t + h / 2, w + h / 2 * k1)
            k3 = f(t + h / 2, w + h / 2 * k2)
            k4 = f(t + h, w + h * k3)
            w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(w - w_rows[-1]).max() <= 1e-8


H = 2.0**-9  # a dyadic step, so that the delays and the bound's grid are exact

SLOPE_DATA = st.fixed_dictionaries({
    "slope": st.floats(-3.0, -1.5),
    "beta": st.sampled_from([0.0, 0.25, 1.0]),
    "m": st.sampled_from([0, 1, 5]),
    "n": st.integers(2, 8),
    "length": st.floats(0.05, 1.0),
})


def test_supercritical_slopes_blow_up_within_the_bound(time_limit):
    # the paper's critical threshold: below the supercritical root w2_minus
    # the Jacobian vanishes before 1 / (w2_minus - w0)
    reached = []

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(SLOPE_DATA)
    def check(case):
        datum = InitialDatum(BoxDomain([0.0], [case["length"]], [case["n"]]),
                             LinearVelocity([[case["slope"]]]))
        buf = discretize(datum, case["m"] * H, H)
        kernel = CuckerSmaleKernel(case["beta"])
        r_v = prehistory_r_v(buf)
        verdict = classify(case["slope"], kernel, r_v)
        if case["beta"] == 0.0:
            assert verdict.verdict == "finite-time-blowup"
        if verdict.verdict != "finite-time-blowup":
            return
        reached.append(case["beta"])
        with time_limit(5):
            evo = evolve_w(buf, kernel, t_end=math.ceil(verdict.bound / H) * H)
        assert evo.blowup is not None
        assert evo.blowup.time <= verdict.bound

    check()
    assert 0.0 in reached and len(set(reached)) > 1


def linear_buffers(slope, beta=0.0, m=1, n=4, h=H):
    """Two identical 1-d linear-datum buffers, one for each of integrate and evolve_w."""
    datum = InitialDatum(BoxDomain([0.0], [1.0], [n]), LinearVelocity([[slope]]))
    return [discretize(datum, m * h, h) for _ in range(2)], CuckerSmaleKernel(beta)


def both_events(bufs, kernel, t_end, h=H):
    res = integrate(bufs[0], kernel, t_end=t_end, output_every=h)
    return res, evolve_w(bufs[1], kernel, t_end=t_end)


class TestStartSlot:
    # the t = 0 slot is judged by the same rule as every later one

    def test_zeroed_start_jacobians_blow_up_at_time_zero(self):
        bufs, kernel = linear_buffers(-0.5)
        for buf in bufs:
            buf.latest.jacobians[:] = 0.0
        res, evo = both_events(bufs, kernel, 16 * H)
        assert res.blowup == evo.blowup == (0.0, 0)
        assert evo.times.size == 0 and evo.w.shape == (0, 4)
        assert bufs[0].clock == bufs[1].clock == 0

    @pytest.mark.parametrize("node", [0, 2])
    def test_nan_start_jacobian_names_its_node(self, node):
        bufs, kernel = linear_buffers(-0.5, beta=1.0)
        for buf in bufs:
            buf.latest.jacobians[node] = math.nan
        res, evo = both_events(bufs, kernel, 16 * H)
        assert res.blowup == evo.blowup == (0.0, node)
        assert _blowup_node(bufs[0].latest.det_jacobians()) == node
        assert bufs[0].clock == bufs[1].clock == 0


PROPERTY_DATA = st.fixed_dictionaries({
    "slope": st.floats(-3.0, 0.5),
    "beta": st.sampled_from([0.0, 0.25, 1.0]),
    "m": st.sampled_from([0, 1, 5]),
    "n": st.integers(1, 8),
    "zeroed_start": st.booleans(),
})


def test_integrate_and_evolve_w_end_alike(time_limit):
    # one decision for both: the same event, a "blowup" status on the event's
    # frame alone, and slope rows for exactly the slots before it
    h = 2.0**-6
    seen = set()

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(PROPERTY_DATA)
    def check(case):
        bufs, kernel = linear_buffers(case["slope"], case["beta"], case["m"],
                                      case["n"], h)
        if case["zeroed_start"]:
            for buf in bufs:
                buf.latest.jacobians[:] = 0.0
        with time_limit(5):
            res, evo = both_events(bufs, kernel, 1.0, h)
        assert res.blowup == evo.blowup
        statuses = [f.status for f in res.frames]
        times = [f.t for f in res.frames]
        if res.blowup is None:
            assert set(statuses) == {"ok"}
            assert evo.times.tolist() == times
        else:
            assert statuses == ["ok"] * (len(statuses) - 1) + ["blowup"]
            # a frame every step: the event lies in the step that ends the run
            assert res.blowup.time <= times[-1]
            assert len(times) == 1 or times[-2] < res.blowup.time
            assert _blowup_node(res.buffer.latest.det_jacobians()) == res.blowup.node
            assert evo.times.tolist() == times[:-1]
        seen.add("none" if res.blowup is None
                 else "at t = 0" if res.blowup.time == 0 else "later")

    check()
    assert seen == {"none", "at t = 0", "later"}


class TestBlowupTime:
    def test_certified_smooth_run_reports_none(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]), LinearVelocity([[0.3]]))
        res = integrate(discretize(datum, 0.1, 2e-3), CuckerSmaleKernel(0.25),
                        t_end=2.0, output_every=0.01)
        assert res.blowup is None

    def test_riccati_blowup_time_refined(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [10]), LinearVelocity([[-2.0]]))
        res = integrate(discretize(datum, 0.1, 1e-3), CuckerSmaleKernel(0.0),
                        t_end=2.0, output_every=0.01)
        found = res.blowup
        assert found is not None
        t_star, node = found
        assert t_star == pytest.approx(math.log(2.0), abs=1e-2)

    def test_riccati_closed_form_at_every_cadence(self, tmp_path):
        # flat kernel, u = -2x: det J = 2 e^-t - 1 meets 1e-6 at t*, and the
        # event, the summary and a sweep cell report it whatever the cadence
        t_star = math.log(2.0) - math.log1p(1e-6)
        cadences = [0.001, 0.005, 0.05, 0.1]
        written = {}
        for every in cadences:
            res, summary = execute_run(run_config_from_dict(
                dict(preset_dict("riccati-blowup"), output_every=every)))
            assert abs(res.blowup.time - t_star) <= 1e-9
            assert summary["blowup"]["time"] == res.blowup.time
            written[every] = "%.17g" % summary["blowup"]["time"]
        sweep = {"schema_version": 1, "base": preset_dict("riccati-blowup"),
                 "axes": [{"path": "output_every", "values": cadences[::3]}],
                 "max_workers": 1}
        (tmp_path / "sweep.json").write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(tmp_path / "sweep.json"),
                     "--out", str(tmp_path / "grid")]) == 0
        with open(tmp_path / "grid" / "sweep_summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["blowup_time"] for r in rows] == [written[e] for e in cadences[::3]]

    @pytest.mark.parametrize("h", [1e-3, 2.0**-7, 0.01])
    def test_two_dimensional_closed_form(self, h):
        # flat kernel, u = A x with A = diag(-2, -1/2): J = I + A (1 - e^-t),
        # so det J = 1 - 5 s / 2 + s^2 with s = 1 - e^-t; every node alike,
        # and the slope needs Jacobi's formula beyond one dimension
        s = (2.5 - math.sqrt(2.25 + 4e-6)) / 2
        t_star = -math.log1p(-s)
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [2, 3]),
                             LinearVelocity([[-2.0, 0.0], [0.0, -0.5]]))
        res = integrate(discretize(datum, 10 * h, h), CuckerSmaleKernel(0.0),
                        t_end=math.ceil(1.0 / h) * h, output_every=h)
        assert abs(res.blowup.time - t_star) <= 1e-9
        assert res.blowup.node == 0  # a tie: the lowest node wins
        assert res.frames[-2].t < res.blowup.time <= res.frames[-1].t


class TestReconstructDensity:
    def test_initial_time_recovers_normalized_density(self):
        dens = lambda x: 1.0 + x[:, 0]
        datum = InitialDatum(BoxDomain([0.0], [1.0], [16]),
                             ConstantVelocity([0.2]), density=dens)
        buf = discretize(datum, 0.0, 1e-3)
        pos, h_vals = reconstruct_density(buf.latest)
        expected = (1.0 + pos[:, 0]) / 1.5  # normalized: integral of 1+x is 3/2
        assert np.allclose(h_vals, expected, rtol=1e-12)

    def test_rigid_translation_density_constant(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), ConstantVelocity([0.5]))
        buf = discretize(datum, 0.1, 0.01)
        kernel = CuckerSmaleKernel(1.0)
        _, h0 = reconstruct_density(buf.latest)
        for _ in range(100):
            step(buf, kernel)
        _, h1 = reconstruct_density(buf.latest)
        assert np.allclose(h1, h0, atol=1e-12)

    def test_mass_conservation_identity(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [12]), LinearVelocity([[-0.5]]))
        buf = discretize(datum, 0.1, 0.01)
        kernel = CuckerSmaleKernel(0.0)
        for _ in range(50):
            step(buf, kernel)
        ens = buf.latest
        _, h_vals = reconstruct_density(ens)
        total = float((h_vals * ens.det_jacobians() * ens.cell_volumes).sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_flat_kernel_jacobian_follows_riccati(self):
        # for u0 = -0.5 x and psi == 1: J(t) = 1 - 0.5 (1 - e^{-t})
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), LinearVelocity([[-0.5]]))
        buf = discretize(datum, 0.1, 1e-3)
        kernel = CuckerSmaleKernel(0.0)
        for _ in range(500):
            step(buf, kernel)
        t = buf.current_time
        expected = 1.0 - 0.5 * (1.0 - math.exp(-t))
        assert np.allclose(buf.latest.jacobians[:, 0, 0], expected, atol=1e-10)
        _, h_vals = reconstruct_density(buf.latest)
        assert np.allclose(h_vals, 1.0 / expected, rtol=1e-9)

    def test_collapsed_jacobian_signals_blowup(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]))
        buf = discretize(datum, 0.0, 1e-3)
        buf.latest.jacobians[:] *= 1e-9
        with pytest.raises(BlowupSignal):
            reconstruct_density(buf.latest)

    def test_nan_jacobian_signals_blowup_at_its_node(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]))
        buf = discretize(datum, 0.0, 1e-3)
        buf.latest.jacobians[2] = math.nan
        with pytest.raises(BlowupSignal) as info:
            reconstruct_density(buf.latest)
        assert info.value.node == 2


class TestForceGradientBound:
    def test_sampled_position_gradient_bounded(self):
        # |d/dx (alignment)| <= C_bar with C_bar = 2 C_psi R_V; the kernel's
        # 2 beta bound leaves a 2x margin over the elementary beta bound
        for beta in (0.25, 1.0):
            datum = InitialDatum(BoxDomain([0.0], [1.0], [10]),
                                 LinearVelocity([[0.4]]))
            kernel = CuckerSmaleKernel(beta)
            buf = discretize(datum, 0.1, 1e-3)
            r_v = prehistory_r_v(buf)
            c_bar = 2.0 * kernel.log_deriv_bound * r_v
            for _ in range(100):
                cur = buf.latest
                _, force_grad, _ = newest_force(buf, kernel)
                g = force_grad[:, 0, 0] / cur.jacobians[:, 0, 0]
                assert np.abs(g).max() <= c_bar + 1e-9
                step(buf, kernel)


def riccati_envelope(w0, c, t):
    """Closed form of w' = -w^2 - w + c from w0 (per node) at times t, with
    -inf from its blow-up time on, and that time (inf where it has none).

    With D = 1 + 4c > 0 and roots a > b of -w^2 - w + c, (w - a)/(w - b) =
    K e^{-(a - b) t}, K = (w0 - a)/(w0 - b), reaching -inf at ln K / (a - b)
    where w0 < b; with D = 0, 1/(w + 1/2) grows by t; with D < 0,
    w + 1/2 = q tan(phi0 - q t), q = sqrt(-D)/2, and every w0 reaches -inf.
    """
    w0, t = np.asarray(w0, dtype=float), np.asarray(t, dtype=float)
    disc = 1.0 + 4.0 * c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if disc > 0:
            r = math.sqrt(disc)
            a, b = (-1.0 + r) / 2, (-1.0 - r) / 2
            k = (w0 - a) / (w0 - b)
            e = k * np.exp(-r * t)
            w = (a - b * e) / (1 - e)
            blowup = np.where(w0 < b, np.log(k) / r, np.inf)
        elif disc == 0:
            w = -0.5 + 1 / (1 / (w0 + 0.5) + t)
            blowup = np.where(w0 < -0.5, -1 / (w0 + 0.5), np.inf)
        else:
            q = math.sqrt(-disc) / 2
            phi = np.arctan((w0 + 0.5) / q)
            w = -0.5 + q * np.tan(phi - q * t)
            blowup = (phi + math.pi / 2) / q
    return np.where(t < blowup, w, -np.inf), blowup


class SlopeAndWave(VelocityField):
    """u(x) = slope (x - 1/2) + amplitude sin(2 pi x), frozen in time."""

    def __init__(self, slope, amplitude):
        self.slope, self.amplitude = slope, amplitude

    def __call__(self, s, x):
        k = 2 * math.pi
        u = self.slope * (x - 0.5) + self.amplitude * np.sin(k * x)
        grad = (self.slope + self.amplitude * k * np.cos(k * x))[:, :, None]
        return u, grad, np.zeros_like(x)


DICHOTOMY_H = 2.0**-7
DICHOTOMY_TABLE = np.linspace(0.0, 4.0, 41)
DICHOTOMY_DATA = st.fixed_dictionaries({
    "beta": st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
    "tabulated": st.booleans(),
    "slope": st.floats(-3.0, 0.5),
    "amplitude": st.floats(0.0, 0.3),
    "n": st.integers(2, 12),
    "m": st.sampled_from([0, 1, 4, 8]),
})


def test_slopes_stay_between_the_riccati_envelopes(time_limit):
    # |F| <= C_bar puts each node's w between the solutions of
    # w' = -w^2 - w -/+ C_bar from its own w0.  RK4 and the Hermite history
    # are fourth order, and w = vel_gradient / J carries an error near h^4 / J,
    # where 1/J grows like |w| toward a blow-up: hence tol = h^4 (1 + w^2).
    # A tabulated kernel (Cucker-Smale sampled on 41 nodes over [0, 4])
    # enters with its own bound as C_psi.
    h, t_end = DICHOTOMY_H, 1.5
    reached = set()

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(DICHOTOMY_DATA)
    def check(case):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [case["n"]]),
                             SlopeAndWave(case["slope"], case["amplitude"]))
        buf = discretize(datum, case["m"] * h, h)
        kernel = CuckerSmaleKernel(case["beta"])
        if case["tabulated"]:
            kernel = TabulatedKernel(DICHOTOMY_TABLE, cucker_smale(case["beta"])[0](DICHOTOMY_TABLE))
        r_v = prehistory_r_v(buf)
        w0 = buf.latest.vel_gradients[:, 0, 0] / buf.latest.jacobians[:, 0, 0]
        verdict = classify(float(w0.min()), kernel, r_v)
        with time_limit(5):
            evo = evolve_w(buf, kernel, t_end=t_end)
        t = evo.times[:, None]
        upper, upper_blowup = riccati_envelope(w0, verdict.c_bar, t)
        lower, _ = riccati_envelope(w0, -verdict.c_bar, t)
        tol = h**4 * (1 + evo.w**2)
        assert np.all(evo.w <= upper + tol)
        assert np.all((evo.w >= lower - tol) | np.isneginf(lower))
        if verdict.verdict == "global-existence":
            assert evo.blowup is None
            assert evo.w.min() >= verdict.w1_minus - tol.max()
        if upper_blowup.min() <= t_end:
            assert evo.blowup is not None
        if evo.blowup is not None:
            assert evo.blowup.time <= upper_blowup.min()
        reached.update({(verdict.verdict, evo.blowup is not None), type(kernel)})

    check()
    assert {("global-existence", False), ("finite-time-blowup", True),
            CuckerSmaleKernel, TabulatedKernel} <= reached
