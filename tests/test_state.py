"""Discretization and history-buffer checks against closed-form flows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_bits
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
    VelocityField,
    _det,
    discretize,
)
from flockdde.cli import write_snapshot_csv
from flockdde.diagnostics import _max_norms, prehistory_frames
from flockdde.dynamics import integrate, step
from flockdde.kernel import CuckerSmaleKernel


def make_row(pos, vel, acc=None):
    """1-d synthetic prehistory row (positions, velocities, accel), for buffer tests."""
    pos = np.asarray(pos, dtype=float).reshape(-1, 1)
    vel = np.asarray(vel, dtype=float).reshape(-1, 1)
    acc = np.zeros_like(vel) if acc is None else np.asarray(acc, dtype=float).reshape(-1, 1)
    return pos, vel, acc


def make_buffer(tau, h, rows):
    """A buffer of 1-d rows, oldest first, with equal masses and the trivial
    tangent flow (J = 1, grad u = 0) at t = 0."""
    n = rows[0][0].shape[0]
    return HistoryBuffer(tau, h, np.full(n, 1.0 / n), rows[0][0].copy(),
                         np.full(n, 1.0 / n), rows, (np.ones((n, 1, 1)), np.zeros((n, 1, 1))))


class FlatTimePartial(VelocityField):
    """A zero field in 1-D whose time partial has the shape (N,), not (N, 1)."""

    def __call__(self, s, x):
        return np.zeros_like(x), np.zeros((x.shape[0], 1, 1)), np.zeros(x.shape[0])


class TestDiscretize:
    def test_total_mass_must_be_finite(self):
        datum = InitialDatum(NodeSet([[0.0], [1.0]], [1e308, 1e308]), ConstantVelocity([0.0]))
        with pytest.raises(InvalidDatumError, match="finite and positive, got inf"):
            discretize(datum, 0.0, 0.01)

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
        assert len(buf.prehistory_clocks()) == 1
        ens = buf.latest
        assert ens.time == 0.0 and math.copysign(1.0, ens.time) == 1.0
        nodes = ens.labels
        np.testing.assert_array_equal(ens.positions, nodes)
        # the history keeps the t = 0 positions as they are: a copy, not the labels
        assert not np.shares_memory(ens.positions, nodes) and ens.positions.flags.writeable
        np.testing.assert_array_equal(ens.jacobians, np.broadcast_to(np.eye(2), (6, 2, 2)))
        u, grad, u_s = field(0.0, nodes)
        np.testing.assert_array_equal(ens.vel_gradients, grad)
        # the velocity's Hermite slope at t = 0 is the material derivative
        slope = u_s + np.einsum("nab,nb->na", grad, u)
        np.testing.assert_array_equal(buf._slopes[0], slope)

    def test_constant_field_straight_characteristics(self):
        c = np.array([0.3, -0.7])
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [3, 3]), ConstantVelocity(c))
        buf = discretize(datum, tau=1.0, h=0.25)
        for j in (-4, -2, 0):
            pos, vel = buf.slot(j)
            expected = buf.latest.labels + j * 0.25 * c
            assert np.allclose(pos, expected, atol=1e-12)
            assert np.allclose(vel, np.broadcast_to(c, vel.shape))

    def test_linear_field_exponential_characteristics(self):
        # du/ds = eta backward from eta_0 = x gives eta_s = x e^s
        datum = InitialDatum(BoxDomain([0.5], [1.5], [4]), LinearVelocity([[1.0]]))
        buf = discretize(datum, tau=1.0, h=0.025)
        labels = buf.latest.labels
        times, positions, _ = buf.gather(buf.prehistory_clocks())
        assert len(times) == 41
        growth = np.exp(times)[:, None]
        assert np.allclose(positions[..., 0], labels[:, 0] * growth, atol=2e-9)

    @pytest.mark.parametrize("field", [
        LinearVelocity([[-0.0, 1.0], [0.5, -0.0]]),  # -0 entries, which einsum sums to +0
        SineVelocity([0.1, -0.2], [0.3, 0.2], [2.0, 1.0], [0.4, 1.1], omega=0.5)])
    def test_tangent_flow_starts_at_zero_and_is_not_stored_before(self, field):
        datum = InitialDatum(BoxDomain([0, 0], [1, 1], [3, 2]), field)
        buf = discretize(datum, 0.03, 0.01)
        jac, vgrad = buf.tangent
        np.testing.assert_array_equal(jac, np.broadcast_to(np.eye(2), (6, 2, 2)))
        grad = field(0.0, buf.labels)[1]
        want = np.einsum("nab,nbc->nac", grad, np.broadcast_to(np.eye(2), (6, 2, 2)))
        assert [float_bits(v) for v in vgrad.ravel().tolist()] == \
            [float_bits(v) for v in want.ravel().tolist()]
        for j in (-3, -2, -1, 0):
            assert len(buf.slot(j)) == 2  # positions and velocities alone
        records = prehistory_frames(buf)
        assert [r.t for r in records] == pytest.approx([-0.03, -0.02, -0.01, 0.0])
        for r in records[:-1]:
            assert math.isnan(r.min_detJ) and math.isnan(r.max_velgrad_norm)
        assert records[-1].min_detJ == 1.0 and math.isfinite(records[-1].max_velgrad_norm)

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
        assert buf.latest.positions.shape[0] == 2
        assert buf.latest.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_total_mass_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), ConstantVelocity([0.0]),
                             density=lambda x: np.zeros(x.shape[0]))
        with pytest.raises(InvalidDatumError):
            discretize(datum, tau=0.0, h=0.01)

    @pytest.mark.parametrize("field", [ConstantVelocity([0.1, 0.2]),
                                       LinearVelocity([[1.0]], [0.0, 0.0]),
                                       FlatTimePartial()])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_velocity_of_the_wrong_dimension_rejected(self, field, tau):
        # the first raises a broadcast error, the second returns (N, 2) values
        # and the third a time partial shaped (N,)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]), field)
        with pytest.raises(InvalidDatumError, match="velocity field"):
            discretize(datum, tau, 0.05)

    @pytest.mark.parametrize("domain,field,tau,message", [
        # the value broadcasts to (N, 2), the gradient does not
        (BoxDomain([0.0, 0.0], [1.0, 1.0], [3, 3]), LinearVelocity([[1.0, 2.0]], [0.0, 0.0]),
         0.1, "velocity field gradient has shape (9, 1, 2) at s=0.0, expected (9, 2, 2)"),
        # the first field fails only between rows, at the first RK4 stage before -0.1
        (BoxDomain([0.0], [1.0], [4]),
         SliceTableVelocity([-0.2, -0.1, 0.0], [ConstantVelocity([0.1, 0.2]),
                                                ConstantVelocity([0.1]),
                                                ConstantVelocity([0.2])]),
         0.2, "velocity field fails at s=-0.125: "),
    ], ids=["gradient-shape", "stage-failure"])
    def test_malformed_field_named_by_its_shape_or_time(self, domain, field, tau, message):
        # the config checks array lengths first; a library caller reaches these
        with pytest.raises(InvalidDatumError) as info:
            discretize(InitialDatum(domain, field), tau, 0.05)
        assert str(info.value).startswith(message)

    def test_negative_tau_rejected(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        with pytest.raises(ValueError):
            discretize(datum, tau=-0.1, h=0.05)

    # (1.5e-10, 1e-10): 1.5 steps, yet within 1e-9 of 2 steps in absolute terms
    @pytest.mark.parametrize("tau,h", [(0.1, 0.03), (0.1, 0.2), (1e-12, 0.01),
                                       (0.1, 0.0), (0.1, -0.01), (1.5e-10, 1e-10)])
    def test_delay_off_the_step_grid_rejected(self, tau, h):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.0]))
        with pytest.raises(ValueError):
            discretize(datum, tau, h)

    def test_slices_sit_on_the_integer_clock(self):
        # slice j is at exactly j * h, not at a sum of steps or a linspace
        datum = InitialDatum(BoxDomain([0.0], [1.0], [2]), ConstantVelocity([0.1]))
        buf = discretize(datum, 0.3, 0.1)
        assert buf.gather(buf.prehistory_clocks())[0].tolist() == [-3 * 0.1, -2 * 0.1,
                                                                   -0.1, 0.0]

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
        u, _, u_s = table(-0.5, x)
        assert u == pytest.approx(2.0) and u_s == pytest.approx(2.0)

    def test_slice_table_time_partial_is_the_derivative_of_the_blend(self):
        # the fields move in time themselves, and outside the table the blend
        # is frozen while its end field still moves
        moving = SliceTableVelocity([-1.0, -0.5, 0.0], [
            SineVelocity([0.1], [0.4], [2.0], [0.3], omega=3.0),
            SineVelocity([-0.2], [0.5], [1.0], [1.1], omega=-2.0),
            LinearVelocity([[0.7]], [0.2])])
        static = SliceTableVelocity([-0.5, 0.0], [ConstantVelocity([1.0]),
                                                  ConstantVelocity([1.4])])
        x = np.linspace(-0.5, 1.5, 7)[:, None]
        e = 1e-5

        def central(table, s):
            return (table(s + e, x)[0] - table(s - e, x)[0]) / (2 * e)

        def inward(table, s, sign):
            # second-order one-sided difference from inside the table
            ds = sign * e
            f = [table(s + k * ds, x)[0] for k in range(3)]
            return (-3 * f[0] + 4 * f[1] - f[2]) / (2 * ds)

        for table in (moving, static):
            lo, hi = table.times[0], table.times[-1]
            cases = [(s, central(table, s)) for s in
                     (lo + 0.2, hi - 0.1, lo + 0.01, hi - 0.01, lo - 0.25, hi + 0.3)]
            cases += [(lo, inward(table, lo, 1)), (hi, inward(table, hi, -1))]
            for s, expected in cases:
                np.testing.assert_allclose(table(s, x)[2], expected,
                                           rtol=0, atol=1e-8, err_msg=f"s = {s}")
        assert np.all(static(-0.75, x)[2] == 0.0)


def _fields(d):
    """One field of each family in d dimensions; the table blends two moving
    sines and a linear field over [-1, 0]."""
    def ramp(a, b):
        return np.linspace(a, b, d)

    matrix = np.array([[0.7, -0.3], [0.2, -0.5]])[:d, :d]
    sine = SineVelocity(ramp(0.1, -0.2), ramp(0.4, 0.3), ramp(2.0, 1.0), ramp(0.3, 1.1),
                        omega=3.0)
    return {
        "constant": ConstantVelocity(ramp(0.3, -0.7)),
        "linear": LinearVelocity(matrix, ramp(0.2, -0.1)),
        "sine": sine,
        "table-of-slices": SliceTableVelocity([-1.0, -0.5, 0.0], [
            sine,
            SineVelocity(ramp(-0.2, 0.1), ramp(0.5, 0.2), ramp(1.0, 3.0), ramp(1.1, 0.0),
                         omega=-2.0),
            LinearVelocity(matrix, ramp(0.2, -0.1))]),
    }


# Central differences with step E are off by at most E^2 |f'''| / 6 plus a
# rounding error near 1e-16 / E; |f'''| stays below 100 for these fields, so
# FD_TOL = 100 E^2 covers both with room to spare.
E = 1e-5
FD_TOL = 100 * E**2


class CountingField(VelocityField):
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, s, x):
        self.calls += 1
        return self.inner(s, x)


class TestVelocityFields:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("family", ["constant", "linear", "sine", "table-of-slices"])
    def test_gradient_and_time_partial_are_the_derivatives(self, family, d):
        field = _fields(d)[family]
        x = np.stack([np.linspace(-0.5, 1.5, 7) + 0.3 * a for a in range(d)], axis=1)
        # inside the table's intervals, and outside it, where theta is frozen
        for s in (-0.8, -0.3, -1.4, 0.2):
            u, grad, u_s = field(s, x)
            assert (u.shape, grad.shape, u_s.shape) == ((7, d), (7, d, d), (7, d))
            for b in range(d):
                dx = E * np.eye(d)[b]
                np.testing.assert_allclose(
                    grad[:, :, b], (field(s, x + dx)[0] - field(s, x - dx)[0]) / (2 * E),
                    rtol=0, atol=FD_TOL, err_msg=f"d/dx_{b} at s = {s}")
            np.testing.assert_allclose(
                u_s, (field(s + E, x)[0] - field(s - E, x)[0]) / (2 * E),
                rtol=0, atol=FD_TOL, err_msg=f"d/ds at s = {s}")

    @pytest.mark.parametrize("m", [0, 1, 10])
    def test_discretize_evaluates_once_per_point(self, m):
        # m + 1 rows and three RK4 stages per step: 4 m + 1 calls, 41 at m = 10
        domain = BoxDomain([0, 0], [1, 1], [3, 2])
        field = CountingField(_fields(2)["table-of-slices"])
        discretize(InitialDatum(domain, field), m * 0.01, 0.01)
        assert field.calls == 4 * m + 1

@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([(5,), (3, 4)]), st.data())
def test_det_is_the_entry_in_1d_and_lapacks_det_above(d, stack, data):
    # LU's sign * exp(sum log |u_ii|) missed a 1 x 1 entry in 7.8% of
    # uniform draws on [0, 3); NaN, +-inf, +-0 and subnormals pass through
    entries = st.one_of(st.floats(-3.0, 3.0), st.floats(0.0, 1e-307),
                        st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]))
    shape = (*stack, d, d)
    jac = np.array(data.draw(st.lists(entries, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)
    got = _det(jac)
    if d == 1:
        assert got.tobytes() == jac[..., 0, 0].tobytes() and not np.shares_memory(got, jac)
    else:
        with np.errstate(all="ignore"):
            want = np.linalg.det(jac)
        assert got.shape == want.shape
        assert [float_bits(v) for v in got.ravel().tolist()] == \
            [float_bits(v) for v in want.ravel().tolist()]


def _sine_reference(field, s, x):
    """``SineVelocity`` as it built its gradient before: zeros, then the
    diagonal written by fancy indexing."""
    arg = field.wavenumber * x + field.phase + field.omega * s
    cos = np.cos(arg)
    n, d = x.shape
    grad = np.zeros((n, d, d))
    idx = np.arange(d)
    grad[:, idx, idx] = field.amplitude * field.wavenumber * cos
    return (field.base + field.amplitude * np.sin(arg), grad,
            field.amplitude * field.omega * cos)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_sine_gradient_is_the_old_construction_bit_for_bit(data):
    d = data.draw(st.sampled_from([1, 2, 3]))
    n = data.draw(st.integers(1, 5))

    def numbers(size, lo, hi):
        return data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

    # zero and negative amplitudes and wavenumbers give +-0 slopes on the diagonal
    field = SineVelocity(numbers(d, -2, 2), numbers(d, -1, 1), numbers(d, -4, 4),
                         numbers(d, -4, 4), omega=data.draw(st.floats(-3, 3)))
    x = np.array(numbers(n * d, -10, 10)).reshape(n, d)
    s = data.draw(st.floats(-2, 0))
    got, want = field(s, x), _sine_reference(field, s, x)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    off_diagonal = ~np.eye(d, dtype=bool)
    assert not np.signbit(got[1][:, off_diagonal]).any()  # +0.0, never -0.0


class TestHistoryBuffer:
    def test_query_at_stored_time_is_exact(self):
        rows = [make_row([t, 2 * t], [1.0, 2.0]) for t in (-1.0, -0.5, 0.0)]
        buf = make_buffer(1.0, 0.5, rows)
        pos, _ = buf.query(-0.5)
        # a stored slot is read, not interpolated: the array the ring was handed
        assert pos is rows[1][0] and pos is buf.slot(-1)[0]

    def test_linear_motion_recovered_exactly(self):
        times = np.linspace(-1, 0, 5)
        buf = make_buffer(1.0, 0.25, [make_row([0.2 + 0.7 * t], [0.7], acc=[0.0])
                                      for t in times])
        for j, theta in ((-4, 0.2), (-3, 0.6), (-1, 0.6)):
            pos, vel = buf.interpolate(j, theta)
            t = (j + theta) * 0.25
            assert pos[0, 0] == pytest.approx(0.2 + 0.7 * t, abs=1e-15)
            assert vel[0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_cubic_trajectory_reproduced_to_rounding(self):
        # position cubic in t, so velocity quadratic and acceleration linear;
        # Hermite with exact slopes reproduces both exactly
        p = np.poly1d([2.0, -1.0, 0.5, 0.3])
        v = p.deriv()
        a = v.deriv()
        times = np.linspace(-1, 0, 5)
        buf = make_buffer(1.0, 0.25, [make_row([p(t)], [v(t)], acc=[a(t)]) for t in times])
        for j, theta in ((-4, 0.5), (-2, 0.4), (-1, 0.8)):
            pos, vel = buf.interpolate(j, theta)
            t = (j + theta) * 0.25
            assert pos[0, 0] == pytest.approx(p(t), abs=1e-14)
            assert vel[0, 0] == pytest.approx(v(t), abs=1e-14)

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
        np.testing.assert_array_equal(buf.query(t)[1], buf.latest.velocities)
        assert np.all(np.isfinite(buf.query(t - 0.2 + 0.01)[1]))
        buf.query(t - 0.2)  # the oldest kept slot
        with pytest.raises(OutOfWindowError):
            buf.query(t - 0.225)
        assert len(buf.prehistory_clocks()) == 0

    def test_newest_interval_reads_a_provisional_slope(self):
        # until the next step replaces it by that step's first stage, the
        # newest slot's slope is the last stage of the step that made it
        datum = InitialDatum(BoxDomain([0.0], [1.0], [6]), SineVelocity([0.0], [0.3], [2.0]))
        kernel = CuckerSmaleKernel(1.0)
        buf = discretize(datum, 0.1, 0.01)
        for _ in range(5):
            step(buf, kernel)
        newest = buf.clock
        pos_before, vel_before = buf.interpolate(newest - 1, 0.5)
        step(buf, kernel)
        pos_after, vel_after = buf.interpolate(newest - 1, 0.5)
        np.testing.assert_array_equal(pos_before, pos_after)
        assert not np.array_equal(vel_before, vel_after)
        assert np.abs(vel_before - vel_after).max() <= 1e-9

    def test_grid_and_coverage_validated(self):
        with pytest.raises(ValueError):  # tau is not a multiple of h
            make_buffer(1.0, 0.4, [make_row([0.0], [0.0]) for _ in range(2)])
        with pytest.raises(ValueError, match="needs 3 rows"):  # too few for the window
            make_buffer(1.0, 0.5, [make_row([0.0], [0.0]) for _ in range(2)])

    def test_malformed_rows_rejected(self):
        # a (1, d) row among (N, d) rows would broadcast in the stepper's sums
        good = [make_row([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) for _ in range(3)]
        bad_row = [good[0], make_row([7.0], [0.0]), good[2]]
        bad_accel = [good[0], good[1][:2] + (np.zeros((1, 1)),), good[2]]
        tangent = (np.ones((3, 1, 1)), np.zeros((3, 1, 1)))
        for rows in (bad_row, bad_accel, [bad_accel[1], *good[1:]]):
            with pytest.raises(ValueError, match="shape"):
                make_buffer(1.0, 0.5, rows)
        with pytest.raises(ValueError, match="shape"):
            HistoryBuffer(1.0, 0.5, np.full(3, 1 / 3), good[0][0].copy(), np.ones(3), good,
                          (tangent[0], np.zeros((1, 1, 1))))
        for masses in (np.ones(3), np.full(3, math.nan)):
            with pytest.raises(ValueError, match="masses must sum to 1"):
                HistoryBuffer(1.0, 0.5, masses, good[0][0].copy(), np.ones(3), good, tangent)

    def test_copy_steps_its_own_ring_and_shares_the_stored_arrays(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [4]),
                             SineVelocity([0.0], [0.3], [2.0], [0.5]))
        buf = discretize(datum, tau=0.03, h=0.01)
        slots, slopes, tangent = list(buf._slots), list(buf._slopes), buf.tangent
        held = [*(a for j in buf.prehistory_clocks() for a in buf.slot(j)),
                *(a for a in slopes if a is not None), *tangent]
        before = [a.tobytes() for a in held]
        twin = buf.copy()
        assert all(a is b for a, b in zip(twin._slots + twin._slopes, slots + slopes))
        for _ in range(6):  # past the m + 3 = 6 slots, so every slot is replaced
            step(twin, CuckerSmaleKernel(1.0))
        assert (buf.clock, twin.clock) == (0, 6)
        assert buf._fwd0 is None and twin._fwd0 is not None
        # the twin replaced its own tangent flow; the original holds the t = 0 pair
        assert buf.tangent is tangent and twin.tangent[0] is not tangent[0]
        assert all(a is b for a, b in zip(buf._slots + buf._slopes, slots + slopes))
        assert not any(a is b for a, b in zip(twin._slots, slots))
        assert [a.tobytes() for a in held] == before
        for name in ("masses", "labels", "cell_volumes"):
            assert getattr(twin, name) is getattr(buf, name)
            assert not getattr(twin, name).flags.writeable

    def test_labels_and_masses_shared_across_slices(self):
        datum = InitialDatum(BoxDomain([0.0], [1.0], [3]), ConstantVelocity([0.1]))
        buf = discretize(datum, tau=0.5, h=0.1)
        clocks = buf.prehistory_clocks()
        assert len(clocks) == 6
        ens = buf.latest
        assert ens.labels is buf.labels
        assert ens.masses is buf.masses
        assert ens.cell_volumes is buf.cell_volumes
        # a stack of slots is three arrays of its own, with no shared per-node array
        times, pos, vel = buf.gather(clocks)
        assert times.shape == (6,) and pos.shape == vel.shape == (6, 3, 1)
        assert not any(np.shares_memory(a, b) for a in (pos, vel)
                       for j in clocks for b in buf.slot(j))


def test_set_up_holds_little_more_than_its_rows():
    # the history keeps the arrays discretize makes: positions, velocities and
    # slopes of m + 1 rows, and the tangent flow at t = 0 alone
    import scipy.spatial  # noqa: F401  (the diameters' import, not the set-up's memory)
    datum = InitialDatum(BoxDomain([0, 0], [1, 1], [16, 16]),
                         SineVelocity([0.0, 0.1], [0.3, 0.2], [2.0, 1.0], [0.3, 0.1]))
    m, h = 200, 0.005
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        buf = discretize(datum, m * h, h)
        frames = prehistory_frames(buf)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(frames) == m + 1 and buf.clock == 0
    rows = (m + 1) * 256 * 2 * 3 * 8  # bytes of (N, d) float64 arrays, three a row
    assert held <= 1.25 * rows, held / rows


def test_a_run_past_tau_holds_little_more_than_its_ring():
    # after t = 0 a slot holds positions and velocities alone, as one before
    # it does: the tangent flow is held once, for the newest slot
    import scipy.spatial  # noqa: F401  (the diameters' import, not the run's memory)
    datum = InitialDatum(BoxDomain([0, 0], [1, 1], [16, 16]),
                         SineVelocity([0.0, 0.1], [0.3, 0.2], [2.0, 1.0], [0.3, 0.1]))
    m, h = 200, 0.005
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = integrate(discretize(datum, m * h, h), CuckerSmaleKernel(1.0), t_end=(m + 10) * h)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.blowup is None and res.buffer.clock == m + 10
    ring = (m + 3) * 256 * 2 * 3 * 8  # bytes of positions, velocities and slopes
    assert held <= 1.5 * ring, held / ring


def max_norm_of(entries):
    """``_max_norms`` of one (N, ...) slice."""
    return float(_max_norms(entries[None])[0])


class TestMaxNorms:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e100, 1e160, 1e300])
    def test_finite_at_every_scale(self, scale):
        # the squares of the largest components leave the float range from
        # about 1e-154 down and 1e154 up
        assert max_norm_of(np.array([[3.0], [-4.0]]) * scale) == 4 * scale
        speed = max_norm_of(np.array([[1.0, -1.0], [3.0, -4.0]]) * scale)
        assert speed == pytest.approx(5 * scale, rel=1e-15)
        # velocity gradients: (N, d, d) entries, their Frobenius norms
        assert max_norm_of(np.array([[[3.0]], [[-4.0]]]) * scale) == 4 * scale
        grad = max_norm_of(np.array([[[1.0, 0.0], [0.0, -1.0]],
                                     [[3.0, 0.0], [0.0, -4.0]]]) * scale)
        assert grad == pytest.approx(5 * scale, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_the_norm_in_range(self, d):
        rng = np.random.default_rng(d)
        for scale in (2.0**-499, 1e-100, 1.0, 1e100, 2.0**499):
            v = scale * rng.normal(size=(50, d))
            assert max_norm_of(v) == float(np.sqrt((v**2).sum(axis=1)).max())
            g = scale * rng.normal(size=(50, d, d))
            assert max_norm_of(g) == float(np.sqrt((g**2).sum(axis=(1, 2))).max())

    def test_speed_above_the_float_range_is_inf(self):
        # |(1.5e308, 1.5e308)| = 2.1e308 overflows; unscaling once raised
        # OverflowError from math.ldexp
        assert max_norm_of(np.array([[1.5e308, 1.5e308]])) == math.inf

    def test_non_finite_velocity_propagates(self):
        assert math.isnan(max_norm_of(np.array([[1.0, math.nan]])))
        assert max_norm_of(np.array([[1.0, -math.inf]])) == math.inf


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
