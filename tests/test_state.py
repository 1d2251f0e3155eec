"""Discretization and history-buffer checks against closed-form flows."""

import math

import numpy as np
import pytest

from flockdde.state import (
    BoxDomain,
    ConstantVelocity,
    HistoryBuffer,
    InitialDatum,
    InvalidDatumError,
    LagrangianEnsemble,
    LinearVelocity,
    NodeSet,
    OutOfWindowError,
    SineVelocity,
    SliceTableVelocity,
    discretize,
)
from flockdde.cli import write_snapshot_csv
from flockdde.dynamics import step
from flockdde.kernel import CuckerSmaleKernel


def make_row(pos, vel, acc=None):
    """1-d synthetic history row with trivial tangent flow, for buffer tests."""
    pos = np.asarray(pos, dtype=float).reshape(-1, 1)
    vel = np.asarray(vel, dtype=float).reshape(-1, 1)
    n = pos.shape[0]
    acc = np.zeros_like(vel) if acc is None else np.asarray(acc, dtype=float).reshape(-1, 1)
    return pos, vel, np.ones((n, 1, 1)), np.zeros((n, 1, 1)), acc


def make_buffer(tau, h, rows):
    """A buffer of 1-d rows, oldest first, with equal masses."""
    n = rows[0][0].shape[0]
    return HistoryBuffer(tau, h, np.full(n, 1.0 / n), rows[0][0].copy(),
                         np.full(n, 1.0 / n), rows)


class TestDiscretize:
    def test_midpoint_rule_two_nodes(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        buf = discretize(datum, tau=0.0, h=0.01)
        ens = buf.latest
        assert ens.positions[:, 0] == pytest.approx([0.25, 0.75])
        assert ens.masses == pytest.approx([0.5, 0.5])
        assert np.allclose(ens.jacobians, np.eye(1))

    def test_zero_delay_is_the_one_slice_at_zero(self):
        field = SineVelocity([0.1, -0.2], [0.3, 0.2], [2.0, 1.0], [0.4, 1.1],
                             omega=0.5)
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [3, 2]), field)
        buf = discretize(datum, 0.0, 0.01)
        assert len(buf.prehistory()) == 1
        ens = buf.latest
        assert ens.time == 0.0 and math.copysign(1.0, ens.time) == 1.0
        nodes = ens.labels
        np.testing.assert_array_equal(ens.positions, nodes)
        np.testing.assert_array_equal(ens.jacobians, np.broadcast_to(np.eye(2), (6, 2, 2)))
        np.testing.assert_array_equal(ens.vel_gradients, field.gradient(0.0, nodes))
        # the velocity's Hermite slope at t = 0 is the material derivative
        slope = field.time_partial(0.0, nodes) + np.einsum(
            "nab,nb->na", field.gradient(0.0, nodes), field(0.0, nodes))
        np.testing.assert_array_equal(buf._acc[0], slope)

    def test_constant_field_straight_characteristics(self):
        c = np.array([0.3, -0.7])
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [3, 3]), ConstantVelocity(c))
        buf = discretize(datum, tau=1.0, h=0.25)
        for s in (-1.0, -0.5, 0.0):
            view = buf.query(s)
            expected = buf.latest.labels + s * c
            assert np.allclose(view.positions, expected, atol=1e-12)
            assert np.allclose(view.velocities, np.broadcast_to(c, view.velocities.shape))

    def test_linear_field_exponential_characteristics(self):
        # du/ds = eta backward from eta_0 = x gives eta_s = x e^s
        datum = InitialDatum(BoxDomain([0.5], [1.5], [4]), LinearVelocity([[1.0]]))
        buf = discretize(datum, tau=1.0, h=0.025)
        labels = buf.latest.labels
        assert len(buf.prehistory()) == 41
        for sl in buf.prehistory():
            expected = labels * np.exp(sl.time)
            assert np.allclose(sl.positions, expected, atol=2e-9)
            # tangent flow follows the same exponential
            assert np.allclose(sl.jacobians[:, 0, 0], np.exp(sl.time), atol=2e-9)

    def test_prehistory_velocity_gradient_chain_rule(self):
        # for u = a x, grad v_s = a * grad eta_s
        datum = InitialDatum(BoxDomain([0.0], [1.0], [5]), LinearVelocity([[-0.5]]))
        buf = discretize(datum, tau=0.5, h=0.025)
        for sl in buf.prehistory():
            assert np.allclose(sl.vel_gradients, -0.5 * sl.jacobians, atol=1e-12)

    def test_masses_follow_density(self):
        dens = lambda x: x[:, 0]  # linear density on [0,1]
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]),
                             density=dens)
        buf = discretize(datum, tau=0.0, h=0.01)
        w = np.array([0.125, 0.375, 0.625, 0.875])
        assert buf.latest.masses == pytest.approx(w / w.sum())

    def test_zero_mass_nodes_dropped(self):
        dens = lambda x: (x[:, 0] > 0.5).astype(float)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]),
                             density=dens)
        buf = discretize(datum, tau=0.0, h=0.01)
        assert buf.latest.n_nodes == 2
        assert buf.latest.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_total_mass_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]),
                             density=lambda x: np.zeros(x.shape[0]))
        with pytest.raises(InvalidDatumError):
            discretize(datum, tau=0.0, h=0.01)

    @pytest.mark.parametrize("field", [ConstantVelocity([0.1, 0.2]),
                                       LinearVelocity([[1.0]], [0.0, 0.0])])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_velocity_of_the_wrong_dimension_rejected(self, field, tau):
        # the first raises a broadcast error, the second returns (N, 2) values
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), field)
        with pytest.raises(InvalidDatumError, match="velocity field"):
            discretize(datum, tau, 0.05)

    def test_negative_tau_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        with pytest.raises(ValueError):
            discretize(datum, tau=-0.1, h=0.05)

    @pytest.mark.parametrize("tau,h", [(0.1, 0.03), (0.1, 0.2), (1e-12, 0.01),
                                       (0.1, 0.0), (0.1, -0.01)])
    def test_delay_off_the_step_grid_rejected(self, tau, h):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        with pytest.raises(ValueError):
            discretize(datum, tau, h)

    def test_slices_sit_on_the_integer_clock(self):
        # slice j is at exactly j * h, not at a sum of steps or a linspace
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.1]))
        buf = discretize(datum, 0.3, 0.1)
        assert [s.time for s in buf.prehistory()] == [-3 * 0.1, -2 * 0.1, -0.1, 0.0]

    def test_explicit_node_set(self):
        ns = NodeSet(nodes=[[0.0], [1.0], [3.0]], weights=[1.0, 1.0, 2.0])
        datum = InitialDatum(ns, ConstantVelocity([0.0]))
        buf = discretize(datum, tau=0.0, h=0.01)
        assert buf.latest.masses == pytest.approx([0.25, 0.25, 0.5])

    def test_slice_table_velocity_blend(self):
        # linear-in-time blend between two constant fields
        table = SliceTableVelocity([-1.0, 0.0],
                                   [ConstantVelocity([1.0]), ConstantVelocity([3.0])])
        x = np.zeros((1, 1))
        assert table(-0.5, x) == pytest.approx(2.0)
        assert table.time_partial(-0.5, x) == pytest.approx(2.0)


class TestHistoryBuffer:
    def test_query_at_stored_time_is_exact(self):
        rows = [make_row([t, 2 * t], [1.0, 2.0]) for t in (-1.0, -0.5, 0.0)]
        buf = make_buffer(1.0, 0.5, rows)
        v = buf.query(-0.5)
        # a stored slot is read, not interpolated: a view of the ring's copy
        np.testing.assert_array_equal(v.positions, rows[1][0])
        assert v.positions is not rows[1][0]
        assert np.shares_memory(v.positions, buf.prehistory()[1].positions)

    def test_linear_motion_recovered_exactly(self):
        times = np.linspace(-1, 0, 5)
        buf = make_buffer(1.0, 0.25, [make_row([0.2 + 0.7 * t], [0.7], acc=[0.0])
                                      for t in times])
        for t in (-0.95, -0.6, -0.1):
            view = buf.query(t)
            assert view.positions[0, 0] == pytest.approx(0.2 + 0.7 * t, abs=1e-15)
            assert view.velocities[0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_cubic_trajectory_reproduced_to_rounding(self):
        # position cubic in t, so velocity quadratic and acceleration linear;
        # Hermite with exact slopes reproduces both exactly
        p = np.poly1d([2.0, -1.0, 0.5, 0.3])
        v = p.deriv()
        a = v.deriv()
        times = np.linspace(-1, 0, 5)
        buf = make_buffer(1.0, 0.25, [make_row([p(t)], [v(t)], acc=[a(t)]) for t in times])
        for t in (-0.875, -0.4, -0.05):
            view = buf.query(t)
            assert view.positions[0, 0] == pytest.approx(p(t), abs=1e-14)
            assert view.velocities[0, 0] == pytest.approx(v(t), abs=1e-14)

    def test_out_of_window_query_raises(self):
        buf = make_buffer(1.0, 1.0, [make_row([0.0], [0.0]) for _ in range(2)])
        with pytest.raises(OutOfWindowError):
            buf.query(-1.5)
        with pytest.raises(OutOfWindowError):
            buf.query(0.5)

    def test_ring_keeps_the_window_of_the_last_delay_plus_two_steps(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), SineVelocity([0.0], [0.2], [2.0]))
        buf = discretize(datum, 0.1, 0.05)
        for _ in range(10):
            step(buf, CuckerSmaleKernel(1.0))
        t = buf.current_time
        assert t == 10 * 0.05
        np.testing.assert_array_equal(buf.query(t).velocities, buf.latest.velocities)
        assert np.all(np.isfinite(buf.query(t - 0.2 + 0.01).velocities))
        buf.query(t - 0.2)  # the oldest kept slot
        with pytest.raises(OutOfWindowError):
            buf.query(t - 0.225)
        assert buf.prehistory() == []

    def test_newest_interval_reads_a_provisional_slope(self):
        # until the next step replaces it by that step's first stage, the
        # newest slot's slope is the last stage of the step that made it
        datum = InitialDatum(BoxDomain([0.0], [1.0], [6]), SineVelocity([0.0], [0.3], [2.0]))
        kernel = CuckerSmaleKernel(1.0)
        buf = discretize(datum, 0.1, 0.01)
        for _ in range(5):
            step(buf, kernel)
        t_mid = buf.current_time - 0.005
        before = buf.query(t_mid)
        step(buf, kernel)
        after = buf.query(t_mid)
        np.testing.assert_array_equal(before.positions, after.positions)
        assert not np.array_equal(before.velocities, after.velocities)
        assert np.abs(before.velocities - after.velocities).max() <= 1e-9

    def test_grid_and_coverage_validated(self):
        with pytest.raises(ValueError):  # tau is not a multiple of h
            make_buffer(1.0, 0.4, [make_row([0.0], [0.0]) for _ in range(2)])
        with pytest.raises(ValueError, match="needs 3 rows"):  # too few for the window
            make_buffer(1.0, 0.5, [make_row([0.0], [0.0]) for _ in range(2)])

    def test_labels_and_masses_shared_across_slices(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [3]), ConstantVelocity([0.1]))
        buf = discretize(datum, tau=0.5, h=0.1)
        first, *rest = buf.prehistory()
        assert len(rest) == 5
        for sl in rest:
            assert sl.labels is first.labels
            assert sl.masses is first.masses
            assert sl.cell_volumes is first.cell_volumes


def ensemble_of(velocities):
    n, d = velocities.shape
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    return LagrangianEnsemble(0.0, np.zeros((n, d)), velocities, eye, eye,
                              np.full(n, 1.0 / n), np.zeros((n, d)), np.ones(n))


class TestMaxSpeed:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e100, 1e160, 1e300])
    def test_finite_at_every_scale(self, scale):
        # the squares of the largest components leave the float range from
        # about 1e-154 down and 1e154 up
        assert ensemble_of(np.array([[3.0], [-4.0]]) * scale).max_speed() == 4 * scale
        speed = ensemble_of(np.array([[1.0, -1.0], [3.0, -4.0]]) * scale).max_speed()
        assert speed == pytest.approx(5 * scale, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_the_norm_in_range(self, d):
        rng = np.random.default_rng(d)
        for scale in (2.0**-499, 1e-100, 1.0, 1e100, 2.0**499):
            v = scale * rng.normal(size=(50, d))
            assert ensemble_of(v).max_speed() == float(np.sqrt((v**2).sum(axis=1)).max())

    def test_non_finite_velocity_propagates(self):
        assert math.isnan(ensemble_of(np.array([[1.0, math.nan]])).max_speed())
        assert ensemble_of(np.array([[1.0, -math.inf]])).max_speed() == math.inf


def test_snapshot_csv_round_trip(tmp_path):
    datum = InitialDatum(BoxDomain([0.0], [1.0], [3]), SineVelocity([0.0], [0.2], [2.0]))
    buf = discretize(datum, tau=0.0, h=0.01)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(buf.latest, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header == ["t", "node_id", "label_0", "pos_0", "vel_0", "mass", "detJ"]
    assert len(lines) == 2 + 3
    row = lines[2].split(",")
    assert float(row[-1]) == 1.0  # detJ at t=0
