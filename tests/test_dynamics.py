"""Force and integrator checks against hand computations and closed forms."""

import math
import re
from dataclasses import asdict, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    frame_bits,
    max_speed,
    prehistory_r_v,
    radius_methods,
    record_per_slice,
    slice_diameters,
    slopes,
)
from flockdde import cli, dynamics
from flockdde.cli import execute_run, write_frames_csv
from flockdde.config import RunConfig, preset_dict, run_config_from_dict
from flockdde.diagnostics import (
    _BLOCK_PAIRS,
    FlockingMonitor,
    _row_blocks,
    diameters,
    prehistory_frames,
)
from flockdde.dynamics import (
    BlowupSignal,
    SingularNormalizerError,
    _force,
    alignment_rhs,
    integrate,
    step,
)
from flockdde.kernel import CuckerSmaleKernel, TabulatedKernel
from flockdde.state import (
    BoxDomain,
    ConstantVelocity,
    HistoryBuffer,
    InitialDatum,
    LinearVelocity,
    SineVelocity,
    _run_steps,
    discretize,
)


# two nodes a delay's travel, 300, behind their delayed selves: under beta 40
# the normalizer is about 6e-199, past the square root of the float range
UNDERFLOW_DATUM = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([3000.0]))


def make_config(**kw):
    base = dict(kernel=CuckerSmaleKernel(1.0),
                datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                   SineVelocity([0.0], [0.3], [2.0])),
                tau=0.1, step=0.005, t_end=1.0, output_every=0.01,
                interpolation="cubic-hermite")
    base.update(kw)
    return SimpleNamespace(**base)


def integrate_config(cfg):
    """Integrate ``make_config``'s scenario from its discretized datum."""
    return integrate(discretize(cfg.datum, cfg.tau, cfg.step), cfg.kernel,
                     t_end=cfg.t_end, output_every=cfg.output_every)


def _force_on(cur, delayed, kernel):
    """``_force`` on one slice against a delayed ``(positions, velocities)``
    pair, its FP warnings silenced as ``step`` silences them."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return _force(kernel, cur.masses, cur.positions, cur.velocities, cur.jacobians,
                      *delayed)


class TestAlignmentForce:
    def test_single_node_relaxes_to_delayed_velocity(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [1]), ConstantVelocity([0.4]))
        buf = discretize(datum, tau=0.0, h=0.01)
        cur = buf.latest
        acc, _, _ = _force_on(cur, (cur.positions, np.array([[1.3]])), CuckerSmaleKernel(2.0))
        assert acc[0, 0] == pytest.approx(1.3 - 0.4, abs=1e-15)

    def test_flat_kernel_mean_field_and_zero_gradient(self):
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [3, 3]),
                             LinearVelocity([[0.2, 0.0], [0.1, -0.3]]))
        buf = discretize(datum, tau=0.0, h=0.01)
        cur = buf.latest
        acc, force_grad, s0 = _force_on(cur, (cur.positions, cur.velocities),
                                        CuckerSmaleKernel(0.0))
        mean = (cur.masses[:, None] * cur.velocities).sum(axis=0)
        expected = mean[None, :] - cur.velocities
        assert np.allclose(acc, expected, atol=1e-15)
        assert np.all(force_grad == 0.0)
        assert np.allclose(s0, 1.0, atol=1e-15)

    def test_two_node_hand_evaluation(self):
        # beta=1, equal masses, eta=(0,1), delayed eta=(0,1), delayed v=(0,1)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        buf = discretize(datum, tau=0.0, h=0.01)
        cur = buf.latest
        cur.positions[:] = [[0.0], [1.0]]
        delayed = (np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
        acc, _, s0 = _force_on(cur, delayed, CuckerSmaleKernel(1.0))
        # independent scalar computation of the two-node quadrature
        assert acc[0, 0] == pytest.approx(0.25 / 0.75, rel=1e-15)
        assert acc[1, 0] == pytest.approx(0.5 / 0.75, rel=1e-15)
        assert s0 == pytest.approx([0.75, 0.75], rel=1e-15)

    def test_alignment_is_convex_combination_of_delayed_velocities(self):
        rng = np.random.default_rng(5)
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [4, 4]),
                             ConstantVelocity([0.0, 0.0]))
        buf = discretize(datum, tau=0.0, h=0.01)
        cur = buf.latest
        for _ in range(20):
            d_pos = rng.normal(size=cur.positions.shape)
            d_vel = rng.normal(size=cur.velocities.shape)
            acc, _, _ = _force_on(cur, (d_pos, d_vel), CuckerSmaleKernel(1.5))
            combo = acc + cur.velocities
            lo, hi = d_vel.min(axis=0), d_vel.max(axis=0)
            pad = 1e-12 * np.maximum(1.0, np.abs(d_vel).max())
            assert np.all(combo >= lo - pad) and np.all(combo <= hi + pad)

    def test_shape_mismatch_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [3]), ConstantVelocity([0.0]))
        cur = discretize(datum, 0.0, 0.01).latest
        bad = (np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            alignment_rhs(cur, bad, CuckerSmaleKernel(1.0))

    def test_singular_normalizer_signalled(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        cur = discretize(datum, 0.0, 0.01).latest
        far = (cur.positions + 1e3, cur.velocities)
        with pytest.raises(SingularNormalizerError):
            _force_on(cur, far, CuckerSmaleKernel(300.0))


class TestStep:
    def test_rigid_translation_is_exact(self):
        c = 0.7
        datum = InitialDatum(BoxDomain([0.0], [1.0], [5]), ConstantVelocity([c]))
        buf = discretize(datum, tau=0.2, h=0.02)
        labels = buf.latest.labels
        for _ in range(25):
            step(buf, CuckerSmaleKernel(1.0))
        ens = buf.latest
        assert np.allclose(ens.velocities, c, atol=1e-14)
        assert np.allclose(ens.positions, labels + ens.time * c, atol=1e-13)

    def test_flat_kernel_velocity_diameter_decays_exactly(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), LinearVelocity([[0.5]]))
        buf = discretize(datum, tau=0.5, h=1e-3)
        kernel = CuckerSmaleKernel(0.0)
        v0 = buf.latest.velocities
        d0 = v0.max() - v0.min()
        for _ in range(1000):
            step(buf, kernel)
        v1 = buf.latest.velocities
        d1 = v1.max() - v1.min()
        assert d1 == pytest.approx(d0 * math.exp(-1.0), rel=1e-8)

    def test_galilean_shift_flat_kernel_with_delay(self):
        # exact shift equivariance needs a flat kernel or zero delay: with both
        # delay and spatial decay the kernel arguments pick up a c*tau offset
        c = 0.8
        kernel = CuckerSmaleKernel(0.0)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [6]),
                             SineVelocity([0.0], [0.3], [2.0]))

        def run(shift):
            buf = discretize(datum, tau=0.5, h=0.01)
            if shift:
                # a constant shift leaves the velocity's slope, the field's
                # material derivative along the unshifted flow, as it is
                rows = []
                for j in buf.prehistory_clocks():
                    pos, vel = buf.slot(j)
                    _, grad, u_s = datum.velocity(j * buf.h, pos)
                    rows.append((pos, vel + c, u_s + np.einsum("nab,nb->na", grad, vel)))
                buf = HistoryBuffer(buf.tau, buf.h, buf.masses, buf.labels,
                                    buf.cell_volumes, rows, buf.tangent)
            for _ in range(60):
                step(buf, kernel)
            return buf.latest.velocities

        plain = run(False)
        shifted = run(True)
        assert np.allclose(shifted, plain + c, atol=1e-12)

    def test_galilean_shift_zero_delay_decaying_kernel(self):
        # with no delay, a state velocity shift equals a field shift and the
        # kernel arguments are unchanged
        c = 0.8
        kernel = CuckerSmaleKernel(1.0)

        def run(base_velocity):
            datum = InitialDatum(BoxDomain([0.0], [1.0], [6]),
                                 SineVelocity([base_velocity], [0.3], [2.0]))
            buf = discretize(datum, tau=0.0, h=0.01)
            for _ in range(60):
                step(buf, kernel)
            return buf.latest.velocities

        plain = run(0.0)
        shifted = run(c)
        assert np.allclose(shifted, plain + c, atol=1e-12)

    def test_translation_invariance_of_velocities(self):
        kernel = CuckerSmaleKernel(1.0)

        def run(offset):
            datum = InitialDatum(BoxDomain([offset], [offset + 1.0], [6]),
                                 SineVelocity([0.0], [0.3], [2.0], [2.0 * -offset]))
            # phase offset keeps the velocity profile identical on the shifted box
            buf = discretize(datum, 0.1, 0.01)
            for _ in range(50):
                step(buf, kernel)
            return buf.latest.velocities

        a = run(0.0)
        b = run(5.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_velocity_maximum_principle(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]),
                             SineVelocity([0.2], [0.5], [3.0], [1.0]))
        buf = discretize(datum, tau=0.1, h=0.01)
        r_v = prehistory_r_v(buf)
        kernel = CuckerSmaleKernel(1.0)
        worst = 0.0
        for _ in range(200):
            step(buf, kernel)
            worst = max(worst, max_speed(buf.latest))
        assert worst <= r_v + 1e-7

    def test_tangent_flow_matches_label_finite_differences(self):
        kernel = CuckerSmaleKernel(1.0)

        def run(n):
            datum = InitialDatum(BoxDomain([0.0], [1.0], [n]),
                                 SineVelocity([0.0], [0.3], [2.0]))
            buf = discretize(datum, tau=0.1, h=0.005)
            for _ in range(100):
                step(buf, kernel)
            ens = buf.latest
            delta = 1.0 / n
            fd = (ens.positions[2:, 0] - ens.positions[:-2, 0]) / (2 * delta)
            return np.abs(fd - ens.jacobians[1:-1, 0, 0]).max()

        errs = {n: run(n) for n in (16, 32)}
        order = math.log2(errs[16] / errs[32])
        assert order >= 1.9

    def test_tangent_flow_matches_label_finite_differences_2d(self):
        # the moments form of the gradient in d >= 2: central differences of
        # the positions along each label axis converge to the Jacobian
        kernel = CuckerSmaleKernel(1.0)

        def run(n):
            datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [n, n]),
                                 SineVelocity([0.0, 0.0], [0.3, 0.2], [2.0, 3.0],
                                              [0.5, 1.0]))
            buf = discretize(datum, tau=0.1, h=0.01)
            for _ in range(30):
                step(buf, kernel)
            ens = buf.latest
            pos = ens.positions.reshape(n, n, 2)
            jac = ens.jacobians.reshape(n, n, 2, 2)
            delta = 1.0 / n
            fd = [(pos[2:, 1:-1] - pos[:-2, 1:-1]) / (2 * delta),
                  (pos[1:-1, 2:] - pos[1:-1, :-2]) / (2 * delta)]
            return max(np.abs(fd[b] - jac[1:-1, 1:-1, :, b]).max() for b in range(2))

        errs = {n: run(n) for n in (12, 24)}
        order = math.log2(errs[12] / errs[24])
        assert order >= 1.9


class TestSimulate:
    def test_zero_t_end_emits_exactly_one_frame(self):
        res = integrate_config(make_config(t_end=0.0))
        assert len(res.frames) == 1
        assert res.frames[0].t == 0.0
        assert res.blowup is None

    def test_start_frame_reuses_prehistory_diameters(self, monkeypatch):
        cfg = make_config(t_end=0.05)
        buffer = discretize(cfg.datum, cfg.tau, cfg.step)
        pre = prehistory_frames(buffer)
        calls = []

        def counted(positions, velocities):
            calls.extend(positions)  # a stack of slices
            return diameters(positions, velocities)

        monkeypatch.setattr(dynamics, "diameters", counted)
        res = integrate(buffer, cfg.kernel, t_end=cfg.t_end,
                        output_every=cfg.output_every, prehistory=pre)
        # the monitor reads every step's d_V, so every slot after t = 0 is reduced
        assert [c.tobytes() for c in calls] == [res.buffer.slot(k)[0].tobytes()
                                                for k in range(1, 11)]
        assert (res.frames[0].d_X, res.frames[0].d_V) == (pre[-1].d_X, pre[-1].d_V)
        # integrate's own prehistory, when none is passed, gives the same run
        assert res.frames == integrate_config(cfg).frames

    def test_start_frame_is_last_prehistory_record_plus_lyapunov(self):
        cfg = make_config(t_end=0.05)
        buffer = discretize(cfg.datum, cfg.tau, cfg.step)
        last = asdict(prehistory_frames(buffer)[-1])
        res = integrate(buffer, cfg.kernel, t_end=cfg.t_end,
                        output_every=cfg.output_every)
        start = asdict(res.frames[0])
        assert math.isnan(last.pop("lyapunov"))
        assert math.isfinite(start.pop("lyapunov"))
        assert start == last

    def test_four_force_evaluations_per_step_and_none_after(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _force(*args)

        monkeypatch.setattr(dynamics, "_force", counted)
        res = integrate_config(make_config(t_end=0.05))
        assert res.frames[-1].t == pytest.approx(0.05)
        assert len(calls) == 4 * 10
        calls.clear()
        integrate_config(make_config(t_end=0.0))
        assert calls == []

    def test_stepping_on_after_integrate_matches_a_longer_run(self):
        cfg = make_config(t_end=0.05)
        first = integrate_config(cfg).buffer
        step(first, cfg.kernel)
        longer = integrate_config(make_config(t_end=0.055)).buffer
        assert first.current_time == longer.current_time == 11 * cfg.step
        # every stored slot and every midpoint, which reads the slopes
        for j in range(11 - 20 - 2, 11 + 1):
            reads = [(first.slot(j), longer.slot(j))]
            if j < 11:
                reads.append((first.interpolate(j, 0.5), longer.interpolate(j, 0.5)))
            for a, b in reads:
                assert np.array_equal(a[0], b[0])
                assert np.array_equal(a[1], b[1])

    def test_deterministic_frames(self):
        a = integrate_config(make_config())
        b = integrate_config(make_config())
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert fa == fb

    def test_flat_kernel_speed_bounded_by_prehistory_max(self):
        cfg = make_config(kernel=CuckerSmaleKernel(0.0), tau=0.5, step=0.005,
                          t_end=5.0, output_every=0.05,
                          datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                             LinearVelocity([[0.5]])))
        res = integrate_config(cfg)
        assert res.blowup is None
        assert max(f.max_speed for f in res.frames) <= res.r_v + 1e-9

    def test_riccati_blowup_detected_near_log_two(self):
        cfg = make_config(kernel=CuckerSmaleKernel(0.0), tau=0.1, step=1e-3,
                          t_end=2.0, output_every=0.01,
                          datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                             LinearVelocity([[-2.0]])))
        res = integrate_config(cfg)
        assert res.blowup is not None
        assert res.blowup.time == pytest.approx(math.log(2.0), abs=5e-3)
        assert res.frames[-1].status == "blowup"
        assert res.frames[-1].min_detJ <= 1e-6

    def test_initial_blowup_reported_at_time_zero(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), LinearVelocity([[0.1]]))
        buf = discretize(datum, 0.0, 0.01)
        buf.latest.jacobians[:] = 0.0
        res = integrate(buf, CuckerSmaleKernel(1.0), t_end=1.0)
        assert res.blowup is not None and res.blowup.time == 0.0
        assert len(res.frames) == 1 and res.frames[0].status == "blowup"

    def test_overflowed_det_names_its_node(self):
        # det J of 1e200 I overflows to +inf on node 2, a finite state: the
        # run ends at t = 0 and names node 2, not node 1 with the least det J
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [2, 2]),
                             ConstantVelocity([0.1, 0.0]))
        buf = discretize(datum, 0.1, 0.01)
        buf.latest.jacobians[1] = 0.5 * np.eye(2)
        buf.latest.jacobians[2] = 1e200 * np.eye(2)
        res = integrate(buf, CuckerSmaleKernel(1.0), t_end=0.1)
        assert res.blowup == (0.0, 2)
        assert len(res.frames) == 1 and res.frames[0].status == "blowup"
        assert dynamics._blowup_node(buf.latest.det_jacobians()) == 2
        assert res.frames[0].min_detJ == 0.25

    def test_normalizer_past_the_square_root_of_the_float_range_runs_on(self):
        # s0 ~ 6e-199, whose square underflows: the tangent flow stays finite
        res = integrate(discretize(UNDERFLOW_DATUM, 0.1, 0.01), CuckerSmaleKernel(40.0),
                        t_end=0.1)
        assert res.blowup is None and len(res.frames) == 11
        assert all(f.status == "ok" and math.isfinite(f.max_velgrad_norm)
                   for f in res.frames)

    def test_convergence_order_at_least_three_and_a_half(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]),
                             SineVelocity([0.1], [0.3], [2.0]))
        kernel = CuckerSmaleKernel(1.0)

        def final_state(h):
            buf = discretize(datum, 0.2, h)
            while buf.current_time < 1.0 - h / 2:
                step(buf, kernel)
            ens = buf.latest
            return np.concatenate([ens.positions.ravel(), ens.velocities.ravel()])

        ref = final_state(2.5e-4)
        errs = {h: np.abs(final_state(h) - ref).max() for h in (4e-3, 2e-3)}
        order = math.log2(errs[4e-3] / errs[2e-3])
        assert order >= 3.5

    def test_negative_t_end_rejected(self):
        with pytest.raises(ValueError):
            integrate_config(make_config(t_end=-1.0))

    def test_non_finite_state_signals_blowup_with_last_finite_time(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.1]))
        buf = discretize(datum, 0.1, 0.01)
        step(buf, CuckerSmaleKernel(1.0))
        last_good = buf.current_time
        buf.latest.velocities[0, 0] = math.nan
        with pytest.raises(BlowupSignal) as info:
            step(buf, CuckerSmaleKernel(1.0))
        assert info.value.time == last_good

    def test_non_finite_state_retains_frames(self):
        cfg = make_config()
        buf = discretize(cfg.datum, cfg.tau, cfg.step)
        buf.slot(buf.prehistory_clocks()[5])[1][0, 0] = math.inf  # poisoned prehistory
        res = integrate(buf, cfg.kernel, t_end=1.0, output_every=0.01)
        assert res.blowup is not None
        assert res.frames[-1].status == "blowup"

    @pytest.mark.parametrize("n_steps", [2, 30])
    def test_integrate_rejects_a_buffer_past_time_zero(self, n_steps):
        # past t = 0 the ring has lost all (30 steps) or part (2) of the prehistory
        cfg = make_config()
        buf = discretize(cfg.datum, cfg.tau, cfg.step)
        for _ in range(n_steps):
            step(buf, cfg.kernel)
        at = re.escape(f"not at t = {n_steps * cfg.step}")
        with pytest.raises(ValueError, match=at):
            integrate(buf, cfg.kernel, t_end=1.0)

    @pytest.mark.parametrize("kw,field", [
        (dict(t_end=1.0, output_every=0.015), "output_every: must be a positive multiple"),
        (dict(t_end=1.0, output_every=0.0), "output_every: must be a positive multiple"),
        (dict(t_end=0.995), "t_end: must be a multiple"),
        (dict(t_end=-0.01), "t_end: must be a multiple"),
    ])
    def test_grid_rules_checked_before_the_first_step(self, kw, field):
        cfg = make_config(tau=0.1, step=0.01)
        buf = discretize(cfg.datum, cfg.tau, cfg.step)
        with pytest.raises(ValueError, match=field):
            integrate(buf, cfg.kernel, **kw)
        assert buf.clock == 0
        run = dict(kernel=cfg.kernel, datum=cfg.datum, tau=0.1, step=0.01,
                   output_every=0.01)
        # a RunConfig built by hand skips the config checks; the run applies them
        with pytest.raises(ValueError, match=field):
            execute_run(RunConfig(**{**run, **kw}))

    def test_one_hermite_interpolation_and_four_forces_per_step(self, monkeypatch):
        hermites, forces = [], []
        interpolate = HistoryBuffer.interpolate

        def counted_interpolate(self, j, theta):
            hermites.append((j, theta))
            return interpolate(self, j, theta)

        def counted_force(*args):
            forces.append(args[0])
            return _force(*args)

        monkeypatch.setattr(HistoryBuffer, "interpolate", counted_interpolate)
        monkeypatch.setattr(dynamics, "_force", counted_force)
        res = integrate_config(make_config(t_end=0.05))
        assert res.frames[-1].t == 10 * 0.005
        assert len(forces) == 4 * 10
        # m = 20: step k interpolates [k - 20, k - 19] at its midpoint
        assert hermites == [(k - 20, 0.5) for k in range(10)]


def _integrate_per_frame(buffer, kernel, t_end, output_every):
    """The reference run loop: each slot reduced on its own as the step that
    made it ends, each prehistory slice on its own; the monitor steps through
    every slot and gives the frames' values, and the run's last slot has a
    frame."""
    _, n_steps, every = _run_steps(buffer.tau, buffer.h, t_end, output_every)
    prehistory = []
    start = buffer.latest  # at t = 0, where the tangent flow starts
    for j in buffer.prehistory_clocks():
        pos, vel = buffer.slot(j)
        d_x, d_v = slice_diameters(pos, vel)
        tangent = None if j else (start.det_jacobians(), start.vel_gradients)
        prehistory.append(record_per_slice(j * buffer.h, vel, d_x, d_v, d_x, d_v, math.nan,
                                           tangent))
    monitor = FlockingMonitor(kernel, prehistory)
    frames = [replace(prehistory[-1], lyapunov=monitor.start()[2])]
    newest = frames[0]  # the record of the newest slot
    for dets, event in dynamics._advance(buffer, kernel, n_steps):
        if buffer.clock and dets is not None:  # a new slot after t = 0
            ens = buffer.latest
            d_x, d_v = slice_diameters(ens.positions, ens.velocities)
            monitor.advance(ens.time, d_v)
            newest = record_per_slice(ens.time, ens.velocities, d_x, d_v, *monitor.start(),
                                      (dets, ens.vel_gradients))
            if buffer.clock % every == 0:
                frames.append(newest)
    if frames[-1] is not newest:
        frames.append(newest)
    if event is not None:
        frames[-1].status = "blowup"
    return prehistory, frames, event, monitor.r_v


BATCH_CASES = {
    # a 3-slot ring, which turns over many times before a batch closes
    "zero-delay": make_config(tau=0.0, t_end=0.2),
    # 16 frames of 1024 nodes fill a batch before the ring of m + 3 = 23
    # slots turns over
    "cap-before-ring": make_config(datum=InitialDatum(BoxDomain([0.0], [1.0], [1024]),
                                                      SineVelocity([0.0], [0.3], [2.0])),
                                   tau=0.1, t_end=0.15, output_every=0.005),
    # det J crosses the tolerance at t = 0.694, between frames
    "riccati-blowup": run_config_from_dict(preset_dict("riccati-blowup")),
    # the ring turns over between two frames
    "every-above-tau": make_config(tau=0.01, output_every=0.035, t_end=0.7),
    "two-d": make_config(datum=InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [5, 4]),
                                            SineVelocity([0.0, 0.1], [0.3, 0.2],
                                                         [2.0, 1.0], [0.3, 0.1])),
                         tau=0.05, step=0.01, t_end=0.5, output_every=0.02),
    # a poisoned prehistory slice ends the run in a BlowupSignal
    "blowup-signal": make_config(t_end=1.0),
    # the step that fails follows slot 5, which has no frame at every = 2
    "signal-off-frame": make_config(t_end=1.0),
}
# the prehistory slice whose velocity is poisoned, by case
POISONED = {"blowup-signal": 5, "signal-off-frame": 6}


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_batched_frames_equal_the_per_frame_loop(name, monkeypatch):
    cfg = BATCH_CASES[name]
    buffers = [discretize(cfg.datum, cfg.tau, cfg.step) for _ in range(2)]
    if name in POISONED:
        for buf in buffers:
            buf.slot(buf.prehistory_clocks()[POISONED[name]])[1][0, 0] = math.inf
    gathered, gather = [], HistoryBuffer.gather

    def counted_gather(self, clocks, slots=None):
        gathered.append(list(clocks))
        return gather(self, clocks, slots)

    monkeypatch.setattr(HistoryBuffer, "gather", counted_gather)
    pre = prehistory_frames(buffers[0])
    res = integrate(buffers[0], cfg.kernel, t_end=cfg.t_end,
                    output_every=cfg.output_every, prehistory=pre)
    want_pre, want, event, r_v = _integrate_per_frame(buffers[1], cfg.kernel, cfg.t_end,
                                                      cfg.output_every)
    assert list(map(frame_bits, pre)) == list(map(frame_bits, want_pre))
    assert list(map(frame_bits, res.frames)) == list(map(frame_bits, want))
    assert (res.blowup, res.r_v) == (event, r_v)
    # no gather holds more than _BLOCK_PAIRS nodes
    # every slot is gathered once, the prehistory's first
    clocks = [c for batch in gathered for c in batch]
    slots = list(range(1, res.buffer.clock + 1))
    assert clocks[len(pre):] == slots
    n, sizes = len(buffers[0].masses), list(map(len, gathered))
    assert max(sizes) * n <= _BLOCK_PAIRS
    if name == "cap-before-ring":
        assert max(sizes) == _BLOCK_PAIRS // n < 22
    # the run's last slot has a frame, with or without the output cadence
    assert res.frames[-1].t == res.buffer.current_time
    if name == "signal-off-frame":
        assert res.buffer.clock == 5 and res.frames[-2].t == 4 * cfg.step
    if name in ("riccati-blowup", *POISONED):
        assert res.frames[-1].status == "blowup"
        assert (res.blowup.node is None) == (name in POISONED)


def _cadence_doc(name):
    """A run config document whose output cadence the test varies."""
    if name == "riccati-blowup":
        return preset_dict(name)
    doc = preset_dict("unconditional-beta025")
    doc["t_end"] = 1.2  # 600 steps, four frames at 3 m = 300
    if name == "two-d":
        doc["datum"] = {"domain": {"box": [[0.0, 1.0], [0.0, 1.0]], "counts": [8, 8]},
                        "velocity": {"family": "sine-perturbation", "base": [0.0, 0.1],
                                     "amplitude": [0.3, 0.2], "wavenumber": [2.0, 1.0],
                                     "phase": [0.3, 0.1]}}
        doc.update(tau=0.05, step=0.01, t_end=0.6)
    if name == "zero-delay":
        doc["tau"] = 0.0
    return doc


def _cadence_rows(name, every, tmp_path):
    """frames.csv's data rows of the run ``name`` at ``output_every`` = every h."""
    path = tmp_path / f"{name}-{every}.csv"
    if name == "blowup-signal":
        # a library run: a poisoned prehistory slice ends it in a BlowupSignal
        cfg = make_config(t_end=0.2)
        buf = discretize(cfg.datum, cfg.tau, cfg.step)
        buf.slot(buf.prehistory_clocks()[5])[1][0, 0] = math.inf
        res = integrate(buf, cfg.kernel, t_end=cfg.t_end, output_every=every * cfg.step)
        assert res.blowup is not None and res.blowup.node is None
    else:
        doc = _cadence_doc(name)
        doc["output_every"] = every * doc["step"]
        res, _ = execute_run(run_config_from_dict(doc))
    write_frames_csv(res.frames, path)
    return path.read_text().splitlines()[2:]


@pytest.mark.parametrize("name", ["one-d", "two-d", "zero-delay", "riccati-blowup",
                                  "blowup-signal"])
def test_frames_at_every_cadence_are_every_kth_step_frame(name, tmp_path):
    # the monitor reads every step, so output_every only picks the rows:
    # every column at k h, status and the blow-up row included, is the row
    # at h, byte for byte
    m = 20 if name == "blowup-signal" else round(
        _cadence_doc(name)["tau"] / _cadence_doc(name)["step"])
    rows = _cadence_rows(name, 1, tmp_path)
    assert (rows[-1].endswith(",blowup")) == (name in ("riccati-blowup", "blowup-signal"))
    for k in sorted({2, 5, m, 3 * m} - {0}):
        want = [row for i, row in enumerate(rows) if i % k == 0 or i == len(rows) - 1]
        assert _cadence_rows(name, k, tmp_path) == want, k


@pytest.mark.parametrize("dets, node", [
    ([1.0, math.inf, 1.0], 1),
    ([0.5, 1.0, math.inf], 2),
    ([1.0, math.nan, -math.inf], 1),
    ([-math.inf, 0.5, math.nan], 0),
    ([2.0, 1e-7, 3.0], 1),
    ([2.0, 1.0, 3.0], None),
])
def test_blowup_node_is_the_first_non_finite_det_else_the_least(dets, node):
    dets = np.array(dets)
    assert dynamics._blowup_node(dets) == node


def test_first_crossing_is_the_earliest_root():
    # det J - tol = -(theta - 0.2)(theta - 0.5)(theta - 0.9) meets zero three
    # times in the step, and its slopes are exact
    tol, h = dynamics.DETJ_TOLERANCE, 0.25
    theta = dynamics._first_crossing(h, 0.09 + tol, -0.73 / h, -0.04 + tol, -0.53 / h)
    assert theta == pytest.approx(0.2, abs=1e-14)
    # an overflowed slope leaves the step's end
    assert dynamics._first_crossing(h, 1.0, -math.inf, 0.0, -1.0) == 1.0


def test_refined_event_is_the_earliest_crossing_not_the_worst_node():
    # 1-D, det J linear in t on each node: node 0 ends lowest, node 1 crosses first
    tol, h = dynamics.DETJ_TOLERANCE, 0.25
    slopes = np.reshape([-1.5 / h, -0.5 / h], (2, 1, 1))
    before, after = np.array([1 + tol, tol + 0.3]), np.array([tol - 0.5, tol - 0.2])

    zero = np.zeros((2, 1))
    prior = (before.reshape(2, 1, 1), slopes)
    buf = HistoryBuffer(h, h, np.full(2, 0.5), zero, np.ones(2), [(zero, zero, zero)] * 2,
                        prior)
    buf.append(zero, zero, zero)
    buf.tangent = (after.reshape(2, 1, 1), slopes)
    event = dynamics._refined_event(buf, prior, before, after)
    assert event.node == 1 and event.time == pytest.approx(0.6 * h, abs=1e-15)


STEP_GRID = st.fixed_dictionaries({
    "m": st.integers(1, 6),
    "h": st.sampled_from([2.0**-4, 2.0**-5, 2.0**-7]),
    "counts": st.one_of(st.tuples(st.integers(1, 12)),
                        st.tuples(st.integers(1, 3), st.integers(1, 4))),
    "beta": st.floats(0.0, 3.0),
    "amplitude": st.floats(0.0, 0.4),
    "phase": st.floats(0.0, 2 * math.pi),
    "n_steps": st.integers(1, 20),
})


def _step_grid_run(case):
    d = len(case["counts"])
    datum = InitialDatum(BoxDomain([0.0] * d, [1.0] * d, list(case["counts"])),
                         SineVelocity([0.0] * d, [case["amplitude"]] * d,
                                      [2.0, 1.0][:d], [case["phase"]] * d))
    h, m = case["h"], case["m"]
    buf = discretize(datum, m * h, h)
    kernel = CuckerSmaleKernel(case["beta"])
    stage_fractions = (0.0, 0.5, 0.5, 1.0)
    delayed = []

    def recording_force(kernel, masses, pos, vel, jac, d_pos, d_vel):
        # a stage at (k + fraction) h reads the state m steps before it
        j, theta = divmod(buf.clock + stage_fractions[len(delayed) % 4] - m, 1)
        want = buf.slot(int(j)) if theta == 0 else buf.interpolate(int(j), theta)
        delayed.append(np.array_equal(d_pos, want[0]) and np.array_equal(d_vel, want[1]))
        return _force(kernel, masses, pos, vel, jac, d_pos, d_vel)

    with mock.patch.object(dynamics, "_force", recording_force):
        res = integrate(buf, kernel, t_end=case["n_steps"] * h)
    return res, delayed


def test_step_grid_history_properties(time_limit):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(STEP_GRID)
    def check(case):
        with time_limit(5):
            res, delayed = _step_grid_run(case)
            rerun, _ = _step_grid_run(case)
        assert res.blowup is None
        # every stage's delayed state is the slot or midpoint at t_stage - tau
        assert len(delayed) == 4 * case["n_steps"] and all(delayed)
        assert [f.t for f in res.frames] == [k * case["h"]
                                            for k in range(case["n_steps"] + 1)]
        assert all(f.max_speed <= res.r_v + 1e-7 for f in res.frames)
        assert rerun.frames == res.frames

    check()


def _force_reference(kernel, masses, pos, vel, jac, d_pos, d_vel):
    """Naive O(N^2) force on full N x N (x d) arrays, radius-based.

    The formulation the blocked kernel replaced: profile and derivative on
    the radii, unit vectors with the r = 0 case set to 0, 3-operand einsum.
    """
    diff = pos[:, None, :] - d_pos[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2))
    value, slope = radius_methods(kernel)
    w = value(r) * masses[None, :]
    s0 = w.sum(axis=1)
    s1 = w @ d_vel
    acc = s1 / s0[:, None] - vel
    safe_r = np.where(r > 0, r, 1.0)
    unit = np.where(r[..., None] > 0, diff / safe_r[..., None], 0.0)
    wd = slope(r) * masses[None, :]
    g0 = np.einsum("ij,ijb->ib", wd, unit)
    g1 = np.einsum("ij,ja,ijb->iab", wd, d_vel, unit)
    grad_pos = (g1 * s0[:, None, None] - s1[:, :, None] * g0[:, None, :]) \
        / (s0**2)[:, None, None]
    return acc, grad_pos @ jac, s0


def _assert_normwise_close(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


# the largest N whose N x N pairs fit one block of the pairwise layers
SIDE = math.isqrt(_BLOCK_PAIRS)
FORCE_KERNELS = [CuckerSmaleKernel(0.0), CuckerSmaleKernel(0.25),
                 CuckerSmaleKernel(1.0), CuckerSmaleKernel(2.5),
                 TabulatedKernel([0.0, 0.3, 0.8, 1.5], [1.0, 0.9, 0.5, 0.2])]


class TestBlockedForce:
    @pytest.mark.parametrize("n", [1, SIDE - 1, SIDE, SIDE + 1, 2 * SIDE + 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kernel", FORCE_KERNELS, ids=repr)
    def test_matches_naive_reference(self, n, d, kernel):
        rng = np.random.default_rng(1000 * n + d)
        masses = rng.uniform(0.5, 1.5, n)
        masses /= masses.sum()
        pos = rng.uniform(0.0, 2.0, (n, d))
        d_pos = pos + 0.1 * rng.normal(size=(n, d))
        # coincident nodes: a repeated node, and nodes equal to delayed ones
        if n > 1:
            pos[1] = pos[0]
        d_pos[::3] = pos[::3]
        vel = rng.normal(size=(n, d))
        d_vel = vel + 0.1 * rng.normal(size=(n, d))
        jac = np.eye(d) + 0.1 * rng.normal(size=(n, d, d))
        got = _force(kernel, masses, pos, vel, jac, d_pos, d_vel)
        want = _force_reference(kernel, masses, pos, vel, jac, d_pos, d_vel)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape
            _assert_normwise_close(g, w)

    @pytest.mark.parametrize("scale", [1e-199, 1e-241, 1e-279])
    @pytest.mark.parametrize("speed", [3000.0, 1e4, 3e4])
    def test_gradient_finite_where_the_normalizer_squared_underflows(self, scale,
                                                                     speed):
        # two nodes a delay of 0.1 ahead of their delayed selves, under the
        # beta that puts the normalizer near ``scale``, below 1e-154
        tau = 0.1
        kernel = CuckerSmaleKernel(math.log(scale) / -math.log1p((speed * tau)**2))
        masses = np.array([0.5, 0.5])
        pos = np.array([[0.0], [0.5]])
        vel = np.array([[speed], [speed]])
        d_vel = np.array([[speed], [-speed]])
        jac = np.ones((2, 1, 1))
        args = (pos, vel, jac, pos - speed * tau, d_vel)
        acc, fg, s0 = _force(kernel, masses, *args)
        assert np.all((s0 > scale / 100) & (s0 < scale * 100)) and np.all(s0**2 == 0)
        assert np.isfinite(fg).all() and np.abs(fg).max() > 0
        # u and its gradient do not depend on the scale of the masses
        want = _force(kernel, 1e150 * masses, *args)
        _assert_normwise_close(acc, want[0])
        _assert_normwise_close(fg, want[1])

    def test_far_separated_steep_datum_raises_singular_normalizer(self):
        # each node's delayed self lies 1e5 away: (1 + 1e10)^-40 underflows
        n = SIDE + 1
        datum = InitialDatum(BoxDomain([0.0], [1.0], [n]), ConstantVelocity([1e6]))
        with pytest.raises(SingularNormalizerError):
            integrate_config(make_config(kernel=CuckerSmaleKernel(40.0), datum=datum,
                                         tau=0.1, step=0.05, t_end=0.1,
                                         output_every=0.05))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 40.0])
    def test_nan_state_reaches_blowup_signal(self, beta):
        # with beta = 40 the far node's normalizer underflows as well; the
        # NaN row still wins, so the stepper reports a blow-up
        side = math.isqrt(SIDE) + 1  # side^2 > SIDE: two row blocks
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [side, side]),
                             ConstantVelocity([0.1, 0.0]))
        buf = discretize(datum, 0.1, 0.01)
        step(buf, CuckerSmaleKernel(beta))
        last_good = buf.current_time
        buf.latest.positions[-1] = 1e6
        if beta == 40.0:
            with pytest.raises(SingularNormalizerError):
                step(buf, CuckerSmaleKernel(beta))
        buf.latest.positions[0, 0] = math.nan
        with pytest.raises(BlowupSignal) as info:
            step(buf, CuckerSmaleKernel(beta))
        assert info.value.time == last_good


def _coordinate_differences(a, b):
    """Per-coordinate differences ``a_i - b_j`` and their squared norms, the
    squares added coordinate by coordinate: the direct form of the distance
    pass."""
    diff = [a[:, k, None] - b[:, k] for k in range(a.shape[1])]
    q = diff[0] * diff[0]
    for diff_k in diff[1:]:
        q += diff_k * diff_k
    return diff, q


def _force_direct(kernel, masses, pos, vel, jac, d_pos, d_vel):
    """The blocked force with the gradient formed from the weighted
    differences in every dimension: one product per coordinate."""
    n, d = pos.shape
    mom = np.c_[masses, masses[:, None] * d_vel]
    s = np.empty((n, d + 1))
    g = np.empty((n, d + 1, d))
    for rows in _row_blocks(n):
        diff, q = _coordinate_differences(pos[rows], d_pos)
        w, wd = kernel.eval_with_deriv_sq(q)
        s[rows] = w @ mom
        for b, diff_b in enumerate(diff):
            g[rows, :, b] = (diff_b * wd) @ mom
    s0, s1 = s[:, 0], s[:, 1:]
    u = s1 / s0[:, None]
    grad_pos = (g[:, 1:] - u[:, :, None] * g[:, None, 0]) / s0[:, None, None]
    return s1 / s0[:, None] - vel, grad_pos @ jac, s0


def _gradient_reference(beta, masses, pos, d_pos, d_vel):
    """The Cucker-Smale position gradient of u = s1 / s0 in long double,
    directly from the differences, and its error scale ``|wd| @ |M|`` (N, d + 1)."""
    ld = np.longdouble
    n, d = pos.shape
    mom = np.c_[masses, masses[:, None] * d_vel].astype(ld)
    s = np.empty((n, d + 1), ld)
    g = np.empty((n, d + 1, d), ld)
    for lo in range(0, n, 64):
        rows = slice(lo, lo + 64)
        diff = pos[rows, None, :].astype(ld) - d_pos[None].astype(ld)
        base = 1 + (diff * diff).sum(axis=2)
        w = base ** ld(-beta)
        wd = -2 * ld(beta) * w / base
        s[rows] = w @ mom
        g[rows] = np.einsum("ij,ja,ijb->iab", wd, mom, diff)
    u = s[:, 1:] / s[:, :1]
    grad = (g[:, 1:] - u[:, :, None] * g[:, None, 0]) / s[:, :1, None]
    _, q = _coordinate_differences(pos, d_pos)
    _, wd = CuckerSmaleKernel(beta).eval_with_deriv_sq(q)
    return grad, np.abs(wd) @ np.abs(np.c_[masses, masses[:, None] * d_vel])


def _sample_state(d, shape):
    """Current and delayed state of a Gaussian cloud on the unit box, a delay
    of 0.05 apart: for d = 2 the datum of the large-N benchmark."""
    datum = InitialDatum(
        BoxDomain(np.zeros(d), np.ones(d), [shape] * d),
        SineVelocity(np.zeros(d), np.linspace(0.1, 0.3, d), np.linspace(3.0, 2.0, d),
                     np.linspace(1.0, 2.0, d)),
        lambda x: np.exp(-((x - 0.5) ** 2).sum(axis=1) / (2 * 0.3**2)))
    buf = discretize(datum, tau=0.05, h=0.01)
    cur, (old_pos, old_vel) = buf.latest, buf.slot(buf.prehistory_clocks()[0])
    return cur.masses, cur.positions, cur.velocities, old_pos, old_vel


def _two_clusters(masses, pos, vel, d_pos, d_vel):
    """The same nodes in two clusters of spread 0.01, 1e3 apart."""
    far = np.zeros(pos.shape[1])
    far[0] = 1e3
    half = np.arange(len(pos)) % 2 == 0
    c_pos, c_dpos = 0.01 * pos, 0.01 * d_pos
    c_pos[half] += far
    c_dpos[half] += far
    return masses, c_pos, vel, c_dpos, d_vel


# The gradient's error, per entry, over eps R (|wd| @ |M|) / s0 (the |M| of
# s1's columns plus |u| times that of s0's), R half the delayed box extent.
# The products add N = 512 or 1024 terms, whose rounding grows about like
# sqrt(N); the largest ratio on the cases below is 12.4 for the moments form
# and 2.4 for the direct form, and 32 = sqrt(1024) bounds both.
MOMENTS_ERROR_MULTIPLE = 32


class TestMomentsGradient:
    """d >= 2: the gradient from first moments about the delayed box's midpoint."""

    CASES = ["benchmark datum", "shifted by 1e3", "two clusters 1e3 apart"]

    @staticmethod
    def case_inputs(d, case):
        state = _sample_state(d, 32 if d == 2 else 8)
        if case == "shifted by 1e3":
            masses, pos, vel, d_pos, d_vel = state
            return masses, pos + 1e3, vel, d_pos + 1e3, d_vel
        if case == "two clusters 1e3 apart":
            return _two_clusters(*state)
        return state

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_within_the_stated_bound(self, d, case):
        masses, pos, vel, d_pos, d_vel = self.case_inputs(d, case)
        beta = 1.0
        eye = np.broadcast_to(np.eye(d), (len(pos), d, d))
        acc, fg, s0 = _force(CuckerSmaleKernel(beta), masses, pos, vel, eye, d_pos, d_vel)
        want = _force_direct(CuckerSmaleKernel(beta), masses, pos, vel, eye, d_pos, d_vel)
        # w and w @ M are the direct form's computations
        assert np.array_equal(acc, want[0]) and np.array_equal(s0, want[2])
        ref, scale = _gradient_reference(beta, masses, pos, d_pos, d_vel)
        half_extent = 0.5 * (d_pos.max(axis=0) - d_pos.min(axis=0)).max()
        u = np.abs(acc + vel)
        bound = (np.finfo(float).eps * half_extent
                 * (scale[:, 1:] + u * scale[:, :1]) / s0[:, None])
        err = np.abs(fg - ref).astype(float).max(axis=2)
        assert np.all(err <= MOMENTS_ERROR_MULTIPLE * bound)

    def test_one_distance_pass_and_kernel_evaluation_per_block(self, monkeypatch):
        # counts work, not time: the distance pass and the kernel each see
        # every pair once, however many coordinates there are
        masses, pos, vel, d_pos, d_vel = _sample_state(2, 32)
        kernel = CuckerSmaleKernel(1.0)
        distances, evaluate = dynamics._sq_distances, kernel.eval_with_deriv_sq
        calls = {"distances": 0, "kernel": 0}

        def counted_distances(*args):
            calls["distances"] += 1
            return distances(*args)

        def counted_kernel(q):
            calls["kernel"] += 1
            return evaluate(q)

        monkeypatch.setattr(dynamics, "_sq_distances", counted_distances)
        monkeypatch.setattr(kernel, "eval_with_deriv_sq", counted_kernel)
        eye = np.broadcast_to(np.eye(2), (len(pos), 2, 2))
        _force(kernel, masses, pos, vel, eye, d_pos, d_vel)
        n_blocks = len(_row_blocks(len(pos)))
        assert len(pos) == 1024 and calls == {"distances": n_blocks, "kernel": n_blocks}


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308,
                     1e-160, 1.3e154, -1.3e154, 1e200, 1.7e308, -1.7e308, 0.0, -0.0]))


def test_distance_pass_is_the_coordinate_order_sum_bit_for_bit(time_limit):
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.data())
    def check(d, na, nb, data):
        def arr(rows):
            return np.array(data.draw(st.lists(_EDGE_FLOATS, min_size=rows * d,
                                               max_size=rows * d))).reshape(rows, d)

        a, b = arr(na), arr(nb)
        with np.errstate(all="ignore"):
            want = _coordinate_differences(a, b)[1]
        got = dynamics._sq_distances(a, b)
        # NaN where the sum is NaN; every other entry has its bits (a NaN's
        # sign and payload are not part of the contract: nothing reads them)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    with time_limit(60):
        check()

@st.composite
def force_inputs(draw):
    """N <= 12 nodes in 1-3 dimensions with random masses and delayed states,
    some delayed positions on current ones and some nodes repeated."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))

    def arr(shape, lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    masses = arr((n,), 0.05, 1.0)
    pos = arr((n, d), -1.0, 1.0)
    d_pos = pos + arr((n, d), -0.5, 0.5)
    index = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        d_pos[j] = pos[i]
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
        pos[j] = pos[i]
    return (CuckerSmaleKernel(draw(st.floats(0.0, 3.0))), masses / masses.sum(), pos,
            arr((n, d), -2.0, 2.0), d_pos, arr((n, d), -2.0, 2.0))


def test_force_properties(time_limit):
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(force_inputs())
    def check(inputs):
        kernel, masses, pos, vel, d_pos, d_vel = inputs
        n, d = pos.shape
        eye = np.broadcast_to(np.eye(d), (n, d, d))

        def u(p):
            return _force(kernel, masses, p, vel, eye, d_pos, d_vel)[0] + vel

        with time_limit(5):
            acc, fg, _ = _force(kernel, masses, pos, vel, eye, d_pos, d_vel)
            # the alignment target is a convex combination of delayed velocities
            scale = np.abs(d_vel).max() + np.abs(vel).max()
            slack = 1e-12 * scale
            assert np.all(acc + vel >= d_vel.min(axis=0) - slack)
            assert np.all(acc + vel <= d_vel.max(axis=0) + slack)
            # each u_i depends on x_i alone, so moving every node's coordinate b
            # at once gives column b of every node's gradient
            eps = 1e-5
            for b in range(d):
                shift = np.zeros(d)
                shift[b] = eps
                fd = (u(pos + shift) - u(pos - shift)) / (2 * eps)
                # the difference quotient's rounding floor is about
                # 1e-16 scale / eps = 1e-11 scale
                err = np.linalg.norm(fd - fg[:, :, b])
                assert err <= 1e-6 * np.linalg.norm(fg[:, :, b]) + 1e-9 * scale

    check()


_GRID_2D = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [5, 4]),
                        SineVelocity([0.0, 0.1], [0.3, 0.2], [2.0, 1.0], [0.3, 0.1]))
GUARDED_RUNS = {
    "one-d": make_config(t_end=0.3),
    "one-d-tau0": make_config(tau=0.0, t_end=0.3),
    "two-d": make_config(datum=_GRID_2D, tau=0.05, step=0.01, t_end=0.3, output_every=0.02),
    "two-d-tau0": make_config(datum=_GRID_2D, tau=0.0, step=0.01, t_end=0.3,
                              output_every=0.02),
    # det J crosses the tolerance at t = 0.694: _refined_event reads two slots
    "riccati-blowup": run_config_from_dict(dict(preset_dict("riccati-blowup"), t_end=0.8)),
}


def _guarded_outcome(name, out):
    """The bytes of what one run returns: the frames, event and newest slot
    of an ``integrate`` run, the rows of ``slopes``, or the rows and files
    of a three-cell sweep task of one set-up, written under ``out``."""
    if name in GUARDED_RUNS:
        res = integrate_config(GUARDED_RUNS[name])
        return (list(map(frame_bits, res.frames)), res.blowup, res.r_v,
                [a.tobytes() for a in (*res.buffer.slot(res.buffer.clock), *res.buffer.tangent)])
    if name == "evolve-w":
        times, w, event = slopes(discretize(make_config().datum, 0.1, 0.005),
                                 CuckerSmaleKernel(1.0), 60)
        return times.tobytes(), w.tobytes(), event
    # m + 50 steps: each cell's ring turns over
    doc = dict(preset_dict("unconditional-beta025"), t_end=0.3, snapshot_csv=True)
    cfgs = [run_config_from_dict(dict(doc, kernel={"family": "cucker-smale", "beta": beta}))
            for beta in (0.25, 0.5, 2.0)]
    rows = cli._run_task([(i, {}, cfg, str(out)) for i, cfg in enumerate(cfgs)])
    return rows, sorted((p.relative_to(out).as_posix(), p.read_bytes())
                        for p in out.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", [*GUARDED_RUNS, "evolve-w", "sweep-task"])
def test_no_stored_slot_is_written(name, monkeypatch, tmp_path):
    # every array the history stores is made read-only as it enters, so a
    # write into a stored slot raises; so is each tangent flow it holds, the
    # t = 0 pair and each step's; the run must give the same bytes
    plain = _guarded_outcome(name, tmp_path / "plain")
    append = HistoryBuffer.append

    def read_only_append(self, *arrays):
        for a in arrays:
            a.flags.writeable = False
        append(self, *arrays)

    def hold_read_only(self, tangent):
        for a in tangent:
            a.flags.writeable = False
        self.__dict__["read_only_tangent"] = tangent

    monkeypatch.setattr(HistoryBuffer, "append", read_only_append)
    monkeypatch.setattr(HistoryBuffer, "tangent", property(
        lambda self: self.__dict__["read_only_tangent"], hold_read_only), raising=False)
    assert _guarded_outcome(name, tmp_path / "guarded") == plain
    if name == "riccati-blowup":
        assert plain[1].node is not None
    if name == "sweep-task":
        assert [row["status"] for row in plain[0]] == ["ok"] * 3 and len(plain[1]) == 9
