"""Force and integrator checks against hand computations and closed forms."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from flockdde import dynamics
from flockdde.diagnostics import _BLOCK_PAIRS, diameters, prehistory_frames
from flockdde.dynamics import (
    BlowupSignal,
    SingularNormalizerError,
    _force,
    alignment_rhs,
    integrate,
    simulate,
    step,
)
from flockdde.kernel import CuckerSmaleKernel, TabulatedKernel
from flockdde.state import (
    BoxDomain,
    ConstantVelocity,
    HistoryView,
    InitialDatum,
    LinearVelocity,
    SineVelocity,
    discretize,
)


def view_of(ens):
    return HistoryView(ens.time, ens.positions, ens.velocities)


def make_config(**kw):
    base = dict(kernel=CuckerSmaleKernel(1.0),
                datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                   SineVelocity([0.0], [0.3], [2.0])),
                tau=0.1, step=0.005, t_end=1.0, output_every=0.01,
                interpolation="cubic-hermite", n_history_slices=None)
    base.update(kw)
    return SimpleNamespace(**base)


class TestAlignmentForce:
    def test_single_node_relaxes_to_delayed_velocity(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [1]), ConstantVelocity([0.4]))
        buf = discretize(datum, tau=0.0, n_history_slices=1)
        cur = buf.latest
        delayed = HistoryView(0.0, cur.positions, np.array([[1.3]]))
        fe = alignment_rhs(cur, delayed, CuckerSmaleKernel(2.0))
        assert fe.accelerations[0, 0] == pytest.approx(1.3 - 0.4, abs=1e-15)

    def test_flat_kernel_mean_field_and_zero_gradient(self):
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [3, 3]),
                             LinearVelocity([[0.2, 0.0], [0.1, -0.3]]))
        buf = discretize(datum, tau=0.0, n_history_slices=1)
        cur = buf.latest
        fe = alignment_rhs(cur, view_of(cur), CuckerSmaleKernel(0.0))
        mean = (cur.masses[:, None] * cur.velocities).sum(axis=0)
        expected = mean[None, :] - cur.velocities
        assert np.allclose(fe.accelerations, expected, atol=1e-15)
        assert np.all(fe.force_gradients == 0.0)
        assert np.allclose(fe.normalizers, 1.0, atol=1e-15)

    def test_two_node_hand_evaluation(self):
        # beta=1, equal masses, eta=(0,1), delayed eta=(0,1), delayed v=(0,1)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        buf = discretize(datum, tau=0.0, n_history_slices=1)
        cur = buf.latest
        cur.positions[:] = [[0.0], [1.0]]
        delayed = HistoryView(0.0, np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
        fe = alignment_rhs(cur, delayed, CuckerSmaleKernel(1.0))
        # independent scalar computation of the two-node quadrature
        assert fe.accelerations[0, 0] == pytest.approx(0.25 / 0.75, rel=1e-15)
        assert fe.accelerations[1, 0] == pytest.approx(0.5 / 0.75, rel=1e-15)
        assert fe.normalizers == pytest.approx([0.75, 0.75], rel=1e-15)

    def test_alignment_is_convex_combination_of_delayed_velocities(self):
        rng = np.random.default_rng(5)
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [4, 4]),
                             ConstantVelocity([0.0, 0.0]))
        buf = discretize(datum, tau=0.0, n_history_slices=1)
        cur = buf.latest
        for _ in range(20):
            d_pos = rng.normal(size=cur.positions.shape)
            d_vel = rng.normal(size=cur.velocities.shape)
            fe = alignment_rhs(cur, HistoryView(0.0, d_pos, d_vel),
                               CuckerSmaleKernel(1.5))
            combo = fe.accelerations + cur.velocities
            lo, hi = d_vel.min(axis=0), d_vel.max(axis=0)
            pad = 1e-12 * np.maximum(1.0, np.abs(d_vel).max())
            assert np.all(combo >= lo - pad) and np.all(combo <= hi + pad)

    def test_shape_mismatch_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [3]), ConstantVelocity([0.0]))
        cur = discretize(datum, 0.0, 1).latest
        bad = HistoryView(0.0, np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            alignment_rhs(cur, bad, CuckerSmaleKernel(1.0))

    def test_singular_normalizer_signalled(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        cur = discretize(datum, 0.0, 1).latest
        far = HistoryView(0.0, cur.positions + 1e3, cur.velocities)
        with pytest.raises(SingularNormalizerError):
            alignment_rhs(cur, far, CuckerSmaleKernel(300.0))


class TestStep:
    def test_rigid_translation_is_exact(self):
        c = 0.7
        datum = InitialDatum(BoxDomain([0.0], [1.0], [5]), ConstantVelocity([c]))
        buf = discretize(datum, tau=0.2, n_history_slices=11)
        labels = buf.latest.labels
        for _ in range(25):
            step(buf, CuckerSmaleKernel(1.0), h=0.02)
        ens = buf.latest
        assert np.allclose(ens.velocities, c, atol=1e-14)
        assert np.allclose(ens.positions, labels + ens.time * c, atol=1e-13)

    def test_flat_kernel_velocity_diameter_decays_exactly(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]), LinearVelocity([[0.5]]))
        buf = discretize(datum, tau=0.5, n_history_slices=501)
        kernel = CuckerSmaleKernel(0.0)
        v0 = buf.latest.velocities
        d0 = v0.max() - v0.min()
        for _ in range(1000):
            step(buf, kernel, h=1e-3)
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
            buf = discretize(datum, tau=0.5, n_history_slices=51)
            if shift:
                from flockdde.state import HistoryBuffer, LagrangianEnsemble
                slices = [LagrangianEnsemble(
                    time=s.time, positions=s.positions.copy(),
                    velocities=s.velocities + c, jacobians=s.jacobians.copy(),
                    vel_gradients=s.vel_gradients.copy(), masses=s.masses,
                    labels=s.labels, cell_volumes=s.cell_volumes,
                    accel_fwd=s.accel_fwd, accel_bwd=s.accel_bwd,
                ) for s in buf.slices]
                buf = HistoryBuffer(buf.tau, slices, buf.interpolation)
            for _ in range(60):
                step(buf, kernel, h=0.01)
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
            buf = discretize(datum, tau=0.0, n_history_slices=1)
            for _ in range(60):
                step(buf, kernel, h=0.01)
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
            buf = discretize(datum, 0.1, 11)
            for _ in range(50):
                step(buf, kernel, h=0.01)
            return buf.latest.velocities

        a = run(0.0)
        b = run(5.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_velocity_maximum_principle(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]),
                             SineVelocity([0.2], [0.5], [3.0], [1.0]))
        buf = discretize(datum, tau=0.1, n_history_slices=11)
        r_v = max(s.max_speed() for s in buf.prehistory())
        kernel = CuckerSmaleKernel(1.0)
        worst = 0.0
        for _ in range(200):
            ens = step(buf, kernel, h=0.01)
            worst = max(worst, ens.max_speed())
        assert worst <= r_v + 1e-7

    def test_tangent_flow_matches_label_finite_differences(self):
        kernel = CuckerSmaleKernel(1.0)

        def run(n):
            datum = InitialDatum(BoxDomain([0.0], [1.0], [n]),
                                 SineVelocity([0.0], [0.3], [2.0]))
            buf = discretize(datum, tau=0.1, n_history_slices=21)
            for _ in range(100):
                step(buf, kernel, h=0.005)
            ens = buf.latest
            delta = 1.0 / n
            fd = (ens.positions[2:, 0] - ens.positions[:-2, 0]) / (2 * delta)
            return np.abs(fd - ens.jacobians[1:-1, 0, 0]).max()

        errs = {n: run(n) for n in (16, 32)}
        order = math.log2(errs[16] / errs[32])
        assert order >= 1.9

    def test_step_size_validation(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        buf = discretize(datum, tau=0.1, n_history_slices=3)
        with pytest.raises(ValueError):
            step(buf, CuckerSmaleKernel(1.0), h=0.2)  # h > tau
        with pytest.raises(ValueError):
            step(buf, CuckerSmaleKernel(1.0), h=0.0)


class TestSimulate:
    def test_zero_t_end_emits_exactly_one_frame(self):
        res = simulate(make_config(t_end=0.0))
        assert len(res.frames) == 1
        assert res.frames[0].t == 0.0
        assert res.blowup is None

    def test_start_frame_reuses_prehistory_diameters(self, monkeypatch):
        cfg = make_config(t_end=0.05)
        buffer = discretize(cfg.datum, cfg.tau, 21)
        pre = prehistory_frames(buffer)
        calls = []

        def counted(ens):
            calls.append(ens.time)
            return diameters(ens)

        monkeypatch.setattr(dynamics, "diameters", counted)
        res = integrate(buffer, cfg.kernel, h=cfg.step, t_end=cfg.t_end,
                        output_every=cfg.output_every, prehistory=pre)
        assert 0.0 not in calls and len(calls) == len(res.frames) - 1
        assert (res.frames[0].d_X, res.frames[0].d_V) == (pre[-1].d_X, pre[-1].d_V)
        assert res.frames == simulate(cfg).frames

    def test_deterministic_frames(self):
        a = simulate(make_config())
        b = simulate(make_config())
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert fa == fb

    def test_flat_kernel_speed_bounded_by_prehistory_max(self):
        cfg = make_config(kernel=CuckerSmaleKernel(0.0), tau=0.5, step=0.005,
                          t_end=5.0, output_every=0.05,
                          datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                             LinearVelocity([[0.5]])))
        res = simulate(cfg)
        assert res.blowup is None
        assert max(f.max_speed for f in res.frames) <= res.r_v + 1e-9

    def test_riccati_blowup_detected_near_log_two(self):
        cfg = make_config(kernel=CuckerSmaleKernel(0.0), tau=0.1, step=1e-3,
                          t_end=2.0, output_every=0.01,
                          datum=InitialDatum(BoxDomain([0.0], [1.0], [8]),
                                             LinearVelocity([[-2.0]])))
        res = simulate(cfg)
        assert res.blowup is not None
        assert res.blowup.time == pytest.approx(math.log(2.0), abs=5e-3)
        assert res.frames[-1].status == "blowup"
        assert res.frames[-1].min_detJ <= 1e-6

    def test_initial_blowup_reported_at_time_zero(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), LinearVelocity([[0.1]]))
        buf = discretize(datum, 0.0, 1)
        buf.latest.jacobians[:] = 0.0
        res = integrate(buf, CuckerSmaleKernel(1.0), h=0.01, t_end=1.0)
        assert res.blowup is not None and res.blowup.time == 0.0
        assert len(res.frames) == 1 and res.frames[0].status == "blowup"

    def test_convergence_order_at_least_three_and_a_half(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [8]),
                             SineVelocity([0.1], [0.3], [2.0]))
        kernel = CuckerSmaleKernel(1.0)

        def final_state(h):
            buf = discretize(datum, 0.2, 101)
            while buf.current_time < 1.0 - h / 2:
                step(buf, kernel, h)
            ens = buf.latest
            return np.concatenate([ens.positions.ravel(), ens.velocities.ravel()])

        ref = final_state(2.5e-4)
        errs = {h: np.abs(final_state(h) - ref).max() for h in (4e-3, 2e-3)}
        order = math.log2(errs[4e-3] / errs[2e-3])
        assert order >= 3.5

    def test_negative_t_end_rejected(self):
        with pytest.raises(ValueError):
            simulate(make_config(t_end=-1.0))

    def test_non_finite_state_signals_blowup_with_last_finite_time(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.1]))
        buf = discretize(datum, 0.1, 11)
        step(buf, CuckerSmaleKernel(1.0), h=0.01)
        last_good = buf.current_time
        buf.latest.velocities[0, 0] = math.nan
        with pytest.raises(BlowupSignal) as info:
            step(buf, CuckerSmaleKernel(1.0), h=0.01)
        assert info.value.time == last_good

    def test_non_finite_state_retains_frames(self):
        cfg = make_config()
        buf = discretize(cfg.datum, cfg.tau, 21)
        buf.slices[5].velocities[0, 0] = math.inf  # poisoned prehistory
        res = integrate(buf, cfg.kernel, h=cfg.step, t_end=1.0, output_every=0.01)
        assert res.blowup is not None
        assert res.frames[-1].status == "blowup"


def _force_reference(kernel, masses, pos, vel, jac, d_pos, d_vel):
    """Naive O(N^2) force on full N x N (x d) arrays, radius-based.

    The formulation the blocked kernel replaced: profile and derivative on
    the radii, unit vectors with the r = 0 case set to 0, 3-operand einsum.
    """
    diff = pos[:, None, :] - d_pos[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2))
    w = kernel.eval(r) * masses[None, :]
    s0 = w.sum(axis=1)
    s1 = w @ d_vel
    acc = s1 / s0[:, None] - vel
    safe_r = np.where(r > 0, r, 1.0)
    unit = np.where(r[..., None] > 0, diff / safe_r[..., None], 0.0)
    wd = kernel.eval_deriv(r) * masses[None, :]
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

    def test_far_separated_steep_datum_raises_singular_normalizer(self):
        # each node's delayed self lies 1e5 away: (1 + 1e10)^-40 underflows
        n = SIDE + 1
        datum = InitialDatum(BoxDomain([0.0], [1.0], [n]), ConstantVelocity([1e6]))
        with pytest.raises(SingularNormalizerError):
            simulate(make_config(kernel=CuckerSmaleKernel(40.0), datum=datum,
                                 tau=0.1, step=0.05, t_end=0.1, output_every=0.05))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 40.0])
    def test_nan_state_reaches_blowup_signal(self, beta):
        # with beta = 40 the far node's normalizer underflows as well; the
        # NaN row still wins, so the stepper reports a blow-up
        side = math.isqrt(SIDE) + 1  # side^2 > SIDE: two row blocks
        datum = InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [side, side]),
                             ConstantVelocity([0.1, 0.0]))
        buf = discretize(datum, 0.1, 11)
        step(buf, CuckerSmaleKernel(beta), h=0.01)
        last_good = buf.current_time
        buf.latest.positions[-1] = 1e6
        if beta == 40.0:
            with pytest.raises(SingularNormalizerError):
                step(buf, CuckerSmaleKernel(beta), h=0.01)
        buf.latest.positions[0, 0] = math.nan
        with pytest.raises(BlowupSignal) as info:
            step(buf, CuckerSmaleKernel(beta), h=0.01)
        assert info.value.time == last_good
