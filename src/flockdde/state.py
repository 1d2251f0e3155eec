"""Discretized Lagrangian state, delay history, and initial-datum construction.

The flow is sampled at Lagrangian nodes: each node carries a position, a
velocity, the tangent-flow matrices (position Jacobian and velocity gradient
with respect to the initial labels), and a fixed mass.  A
``HistoryBuffer``, the one owner of the step grid, holds the flow as untimed
rows over the trailing delay window and answers dense interpolation queries,
which is what makes the delayed force evaluable between stored steps.  Every
delayed read, stored or interpolated, is a ``(positions, velocities)`` pair,
and ``_run_steps`` holds every rule that a run's times obey on that grid.
The prehistory's velocity field answers one call, ``field(s, x) -> (u,
grad_u, u_s)``, and ``discretize`` makes and checks one call per row and
per RK4 stage.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LagrangianEnsemble",
    "HistoryBuffer",
    "BoxDomain",
    "NodeSet",
    "InitialDatum",
    "VelocityField",
    "ConstantVelocity",
    "LinearVelocity",
    "SineVelocity",
    "SliceTableVelocity",
    "InvalidDatumError",
    "OutOfWindowError",
    "discretize",
]

# How far, in steps, a query may round past either end of the stored window.
_WINDOW_TOL = 1e-9


class InvalidDatumError(Exception):
    """The initial datum cannot be discretized (e.g. zero total mass)."""


class OutOfWindowError(Exception):
    """A history query fell outside the covered delay window."""


@dataclass
class LagrangianEnsemble:
    """One time slice of the discretized flow, as a history hands it out.

    ``masses``, ``labels`` and ``cell_volumes`` are shared, read-only arrays
    identical across all slices of a run.  A slice is not checked: its
    arrays are views of rows that ``HistoryBuffer`` checked when they entered.
    A stack of K slices (``HistoryBuffer.gather``) has a (K,) ``time`` and a
    leading axis of K on each per-node array.
    """

    time: float
    positions: np.ndarray      # (N, d)
    velocities: np.ndarray     # (N, d)
    jacobians: np.ndarray      # (N, d, d)
    vel_gradients: np.ndarray  # (N, d, d)
    masses: np.ndarray         # (N,)
    labels: np.ndarray         # (N, d)
    cell_volumes: np.ndarray   # (N,)

    @property
    def dim(self) -> int:
        return self.positions.shape[-1]

    def det_jacobians(self) -> np.ndarray:
        return _det(self.jacobians)


def _det(jacobians: np.ndarray) -> np.ndarray:
    """det J per node; a non-finite Jacobian gives a non-finite det, silently."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linalg.det(jacobians)


def _hermite(theta, dt, y0, m0, y1, m1):
    """Cubic Hermite value at fraction ``theta`` of an interval of length ``dt``."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + (h10 * dt) * m0 + h01 * y1 + (h11 * dt) * m1


def _grid_steps(value: float, h: float) -> int | None:
    """The k >= 0 with |value / h - k| <= 1e-9 max(1, k), or None if there is
    none: the tolerance is counted in steps, so it holds at any size of h."""
    x = value / h
    k = round(x) if math.isfinite(x) else -1
    return k if k >= 0 and abs(x - k) <= 1e-9 * max(1, k) else None


def _delay_steps(tau: float, h: float) -> int:
    """The m with tau = m h; raises ValueError unless there is one."""
    if not h > 0:
        raise ValueError(f"step: must be positive, got {h}")
    m = _grid_steps(tau, h)
    if m is None or (m > 0) != (tau > 0) or tau < 0:
        raise ValueError(f"tau: must be a positive integer multiple of step ({h}), got {tau}")
    return m


def _run_steps(tau: float, h: float, t_end: float, output_every: float):
    """(m, n_steps, every) with tau = m h, t_end = n_steps h and output_every
    = every h, every >= 1.  Raises ValueError, naming the field at fault
    first."""
    m = _delay_steps(tau, h)
    every = _grid_steps(output_every, h)
    if not every:
        raise ValueError(f"output_every: must be a positive multiple of step ({h}), "
                         f"got {output_every}")
    n_steps = _grid_steps(t_end, h)
    if n_steps is None or t_end < 0:
        raise ValueError(f"t_end: must be a multiple of step ({h}), got {t_end}")
    return m, n_steps, every


class HistoryBuffer:
    """Ring record of the flow on the step grid over [t - tau - 2h, t].

    The one owner of the grid, which every stepping call reads.  With
    tau = m h, slot j holds the state at time j h, j read off an integer clock
    (never a sum of steps), in ring arrays of m + 3 slots.  Its arguments are
    the arrays shared by all slots and the prehistory as m + 1 untimed rows
    ``(positions, velocities, jacobians, vel_gradients, accel)``, oldest
    first, for slots -m..0.  A query at t reads j = floor(t / h): the slot
    itself when t / h = j, else the cubic Hermite interpolant at
    theta = t / h - j, whose slopes are the velocities for the positions and
    the stored dv/dt for the velocities.  That slope is the row's ``accel``,
    the datum's material derivative, at t <= 0, else the first RK4 stage of
    the step leaving the slot, kept apart at t = 0 where the prehistory
    hands over to the dynamics.  The newest slot holds the last stage of the
    step that made it until the next step replaces it, so only a query from
    outside the stepper into the newest interval reads that provisional
    slope.  Only the stepper writes.  Stored-slot queries, ``slot`` and
    ``latest`` return views, valid until their slot is reused m + 3 steps
    later: copy what must outlive that; ``gather`` copies.
    """

    def __init__(self, tau: float, h: float, masses, labels, cell_volumes, rows):
        m = _delay_steps(tau, h)
        if len(rows) != m + 1:
            raise ValueError(f"history needs {m + 1} rows on [-tau, 0], got {len(rows)}")
        n, d = np.shape(rows[0][0])
        shapes = [(n, d), (n, d), (n, d, d), (n, d, d), (n, d)]
        shared = [np.shape(a) for a in (labels, masses, cell_volumes)]
        if n < 1 or shared != [(n, d), (n,), (n,)] or any(
                [np.shape(a) for a in r] != shapes for r in rows):
            raise ValueError("history needs N >= 1 nodes, rows shaped (N, d), (N, d), (N, d, d), "
                             "(N, d, d), (N, d) and shared arrays shaped (N, d), (N,), (N,)")
        if not abs(float(np.sum(masses)) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("masses must sum to 1 within 1e-12")
        self.tau, self.h, self.m = float(tau), float(h), m
        self.masses, self.labels, self.cell_volumes = masses, labels, cell_volumes
        self._fwd0 = None  # the first stage of the step leaving t = 0
        self._pos, self._vel, self._jac, self._vgrad, self._acc = (
            np.empty((m + 3, *np.shape(a))) for a in rows[0])
        self.clock = -m - 1  # the newest slot; the prehistory ends at 0
        for row in rows:
            self.append(*row)

    @property
    def current_time(self) -> float:
        return self.clock * self.h

    @property
    def latest(self) -> LagrangianEnsemble:
        r = self.clock % len(self._pos)
        return LagrangianEnsemble(self.current_time, self._pos[r], self._vel[r], self._jac[r],
                                  self._vgrad[r], self.masses, self.labels,
                                  self.cell_volumes)

    def _oldest(self) -> int:
        return max(-self.m, self.clock - len(self._pos) + 1)

    def prehistory_clocks(self) -> range:
        """Clocks of the stored slices at times <= 0, oldest first."""
        return range(self._oldest(), min(self.clock, 0) + 1)

    def gather(self, clocks) -> LagrangianEnsemble:
        """The stored slots at ``clocks`` as one stacked ensemble, copied."""
        j = np.asarray(clocks)
        r = j % len(self._pos)
        return LagrangianEnsemble(j * self.h, self._pos[r], self._vel[r], self._jac[r],
                                  self._vgrad[r], self.masses, self.labels,
                                  self.cell_volumes)

    def slot(self, j: int):
        """(positions, velocities, jacobians, vel_gradients) stored at time j h."""
        r = j % len(self._pos)
        return self._pos[r], self._vel[r], self._jac[r], self._vgrad[r]

    def interpolate(self, j: int, theta: float):
        """Hermite (positions, velocities) at time (j + theta) h."""
        a, b = j % len(self._pos), (j + 1) % len(self._pos)
        m0 = self._fwd0 if j == 0 else self._acc[a]
        pos = _hermite(theta, self.h, self._pos[a], self._vel[a],
                       self._pos[b], self._vel[b])
        vel = _hermite(theta, self.h, self._vel[a], m0, self._vel[b], self._acc[b])
        return pos, vel

    # only bench/spans.py and tests call query (with OutOfWindowError, _WINDOW_TOL)
    def query(self, t: float):
        """(positions, velocities) at time t: ``slot(j)[:2]`` or ``interpolate``."""
        lo, hi = self._oldest(), self.clock
        x = t / self.h
        if not lo - _WINDOW_TOL <= x <= hi + _WINDOW_TOL:
            raise OutOfWindowError(
                f"query at t={t} outside stored window [{lo * self.h}, {hi * self.h}]")
        j = min(max(math.floor(x), lo), hi)
        theta = x - j
        if theta == 0.0 or j == hi:
            return self.slot(j)[:2]
        return self.interpolate(j, theta)

    def copy(self) -> HistoryBuffer:
        """A buffer that steps on its own copy of the ring and shares the
        read-only ``masses``, ``labels`` and ``cell_volumes``: one prepared
        prehistory, run by several kernels."""
        twin = copy.copy(self)
        twin._pos, twin._vel, twin._jac, twin._vgrad, twin._acc = (
            a.copy() for a in (self._pos, self._vel, self._jac, self._vgrad, self._acc))
        twin._fwd0 = None if self._fwd0 is None else self._fwd0.copy()
        return twin

    def set_slope(self, accel: np.ndarray) -> None:
        """Store dv/dt leaving the newest slot (the first stage of its step)."""
        if self.clock == 0:
            self._fwd0 = accel
        else:
            self._acc[self.clock % len(self._pos)] = accel

    def append(self, positions, velocities, jacobians, vel_gradients, accel) -> None:
        """Store the state one step on, with its provisional slope, and tick."""
        self.clock += 1
        r = self.clock % len(self._pos)
        self._pos[r], self._vel[r], self._acc[r] = positions, velocities, accel
        self._jac[r], self._vgrad[r] = jacobians, vel_gradients


class VelocityField:
    """Time-dependent velocity field on the datum domain, in closed form.

    ``field(s, x)``, at a time ``s`` and points ``x`` shaped (N, d), returns
    ``(u, grad_u, u_s)`` from one evaluation: the value (N, d), the spatial
    gradient (N, d, d) with entries du_a/dx_b, and the time partial (N, d).
    ``discretize`` integrates the tangent flow with ``grad_u`` and takes the
    velocity's Hermite slope, its material derivative ``u_s + (grad_u) u``,
    from all three.
    """

    def __call__(self, s: float, x: np.ndarray):
        raise NotImplementedError


class ConstantVelocity(VelocityField):
    def __init__(self, value):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))

    def __call__(self, s, x):
        n, d = x.shape
        return np.broadcast_to(self.value, x.shape).copy(), np.zeros((n, d, d)), np.zeros_like(x)


class LinearVelocity(VelocityField):
    """Affine field ``u(x) = A x + b``."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = self.matrix.shape[0]
        self.offset = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)

    def __call__(self, s, x):
        grad = np.broadcast_to(self.matrix, (x.shape[0], *self.matrix.shape))
        return x @ self.matrix.T + self.offset, grad, np.zeros_like(x)


class SineVelocity(VelocityField):
    """Per-axis sinusoidal perturbation around a constant base velocity.

    A nonzero ``omega`` animates the phase in time (smoothly), giving
    time-dependent prehistory data.
    """

    def __init__(self, base, amplitude, wavenumber, phase=None, omega=0.0):
        self.base = np.atleast_1d(np.asarray(base, dtype=float))
        self.amplitude = np.atleast_1d(np.asarray(amplitude, dtype=float))
        self.wavenumber = np.atleast_1d(np.asarray(wavenumber, dtype=float))
        d = self.base.size
        self.phase = np.zeros(d) if phase is None else np.asarray(phase, dtype=float)
        self.omega = float(omega)
        # the factors of cos in du_a/dx_a and in u_s, which
        # amplitude * wavenumber * cos and amplitude * omega * cos form first
        self._slope, self._rate = self.amplitude * self.wavenumber, self.amplitude * self.omega

    def __call__(self, s, x):
        arg = self.wavenumber * x + self.phase + self.omega * s
        cos = np.cos(arg)
        u = self.base + self.amplitude * np.sin(arg)
        n, d = u.shape  # the diagonal gradient takes the value's shape, checked first
        slope = self._slope * cos
        if d == 1:
            grad = slope[:, :, None]
        else:
            grad = np.zeros((n, d, d))
            grad.reshape(n, d * d)[:, ::d + 1] = slope  # the diagonal
        return u, grad, self._rate * cos


class SliceTableVelocity(VelocityField):
    """Linear-in-time blend of velocity fields given at sample times; outside
    them the blend weight is frozen, the end field still evaluated at s."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(fields) != self.times.size or self.times.size < 2:
            raise ValueError("need matching 1-d times and fields with >= 2 entries")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        self.fields = list(fields)

    def __call__(self, s, x):
        t = self.times
        c = min(max(s, t[0]), t[-1])
        i = min(max(int(np.searchsorted(t, c, side="right")) - 1, 0), t.size - 2)
        dt = t[i + 1] - t[i]
        theta = (c - t[i]) / dt
        (u0, g0, s0), (u1, g1, s1) = self.fields[i](s, x), self.fields[i + 1](s, x)
        u_s = (1 - theta) * s0 + theta * s1
        # product rule; theta moves inside the table, its ends taking the inner slope
        if t[0] <= s <= t[-1]:
            u_s = u_s + (u1 - u0) / dt
        return (1 - theta) * u0 + theta * u1, (1 - theta) * g0 + theta * g1, u_s


@dataclass
class BoxDomain:
    """Axis-aligned box with per-axis midpoint-rule node counts."""

    lo: np.ndarray
    hi: np.ndarray
    counts: tuple

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if self.lo.shape != self.hi.shape or len(self.counts) != self.lo.size:
            raise ValueError("lo, hi and counts must agree in dimension")
        if np.any(self.hi <= self.lo) or any(c < 1 for c in self.counts):
            raise ValueError("box must have positive extent and node counts")
        with np.errstate(over="ignore"):  # an extent of inf gives a volume of inf
            if not np.isfinite(np.prod((self.hi - self.lo) / self.counts)):
                raise ValueError("box extent and cell volume must be finite")
        n, limit = math.prod(self.counts), np.iinfo(np.intp).max
        if n > limit:
            raise ValueError(f"a grid of {n} nodes is more than numpy can index ({limit})")

    def nodes_and_volumes(self):
        spacings = (self.hi - self.lo) / self.counts
        axes = [lo + (np.arange(n) + 0.5) * d for lo, n, d in zip(self.lo, self.counts, spacings)]
        nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        return nodes, np.full(len(nodes), float(np.prod(spacings)))


@dataclass
class NodeSet:
    """Explicit Lagrangian nodes with weights (cell volumes)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 2:
            raise ValueError("nodes must be an (N, d) array")
        if self.weights.shape != (self.nodes.shape[0],):
            raise ValueError("weights must match the node count")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    def nodes_and_volumes(self):
        return self.nodes.copy(), self.weights.copy()


@dataclass
class InitialDatum:
    """Domain, reference density and prehistory velocity field.

    ``density`` may be a callable on node positions, a per-node value array,
    or None for uniform.  Node placement and masses are frozen from the
    density as seen at s = 0; prehistory densities never enter the dynamics
    because the force only weighs by the initial-time masses.
    """

    domain: BoxDomain | NodeSet
    velocity: VelocityField
    density: object = None

    def density_values(self, nodes: np.ndarray) -> np.ndarray:
        if self.density is None:
            return np.ones(nodes.shape[0])
        if callable(self.density):
            vals = np.asarray(self.density(nodes), dtype=float)
        else:
            vals = np.asarray(self.density, dtype=float)
        if vals.shape != (nodes.shape[0],):
            raise InvalidDatumError(
                f"density values have shape {vals.shape}, expected ({nodes.shape[0]},)"
            )
        return vals


def _matmul(a, c):
    """``np.einsum("nab,nbc->nac", a, c)`` bit for bit, without its set-up:
    the products summed in order over b, from +0 as einsum sums them (so no
    entry is -0).  Unlike einsum, its ufuncs warn on overflow and on invalid
    products unless the caller silences them."""
    out = a[:, :, 0, None] * c[:, None, 0]
    for b in range(1, a.shape[-1]):
        out += a[:, :, b, None] * c[:, None, b]
    out += 0.0
    return out


def _rk4(rhs, y, h, k1, mid, end):
    """One classical RK4 step of ``y' = rhs(stage, *y)`` from the given first stage.

    ``y`` and each stage are tuples of arrays.  ``mid`` is the ``stage``
    argument of the two midpoint stages and ``end`` that of the last: the
    prehistory passes stage times, the stepper the delayed states.  Callers
    already hold ``k1``: the stepper keeps it as a Hermite slope, and the
    prehistory reads it off the row it built last.  Returns the new tuple
    and the last stage.
    """
    k2 = rhs(mid, *[a + (h / 2) * k for a, k in zip(y, k1)])
    k3 = rhs(mid, *[a + (h / 2) * k for a, k in zip(y, k2)])
    k4 = rhs(end, *[a + h * k for a, k in zip(y, k3)])
    return tuple(a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)), k4


def discretize(datum: InitialDatum, tau: float, h: float) -> HistoryBuffer:
    """Build the Lagrangian nodes and the prehistory record on [-tau, 0].

    Midpoint-rule nodes carry masses proportional to density times cell
    volume, normalized to total mass 1; zero-mass nodes are dropped.  The
    prehistory has one row per step ``h`` at times j h, j = -m..0, with
    tau = m h (tau = 0 gives the one row at t = 0).  Its positions come
    from backward RK4 integration of the characteristic flow under the
    prescribed velocity field, with the tangent flow integrated alongside
    for the Jacobians.
    """
    m = _delay_steps(tau, h)

    nodes, volumes = datum.domain.nodes_and_volumes()
    dens = datum.density_values(nodes)
    if np.any(dens < 0):
        raise InvalidDatumError("density must be nonnegative")
    with np.errstate(over="ignore"):  # an overflow is rejected below
        raw = dens * volumes
        total = float(raw.sum())
    if not 0.0 < total < math.inf:
        raise InvalidDatumError(f"the datum's total mass must be finite and positive, got {total}")
    keep = raw > 0
    nodes, volumes, raw = nodes[keep], volumes[keep], raw[keep]
    masses = raw / raw.sum()
    for arr in (nodes, volumes, masses):
        arr.flags.writeable = False

    field = datum.velocity
    n, d = nodes.shape

    def evaluate(s, pos):
        """The field's ``(u, grad_u, u_s)`` at time s, each checked for shape."""
        try:
            u, grad, u_s = field(s, pos)
        except ValueError as exc:
            raise InvalidDatumError(f"velocity field fails at s={s}: {exc}") from None
        for name, a, shape in (("", u, (n, d)), (" gradient", grad, (n, d, d)),
                               (" time partial", u_s, (n, d))):
            if np.shape(a) != shape:
                raise InvalidDatumError(f"velocity field{name} has shape {np.shape(a)} "
                                        f"at s={s}, expected {shape}")
        return u, grad, u_s

    def rhs(s, pos, jac):
        u, grad, _ = evaluate(s, pos)
        return u, _matmul(grad, jac)

    # walk back from the labels at t = 0, where the field is evaluated first
    y = (nodes.copy(), np.broadcast_to(np.eye(d), (n, d, d)).copy())
    rows = []
    for j in range(0, -m - 1, -1):
        s = j * h
        if rows:  # one backward step, whose first stage is the later row
            with np.errstate(over="ignore", invalid="ignore"):
                y, _ = _rk4(rhs, y, -h, (rows[-1][1], rows[-1][3]), (j + 0.5) * h, s)
            if not (np.isfinite(y[0]).all() and np.isfinite(y[1]).all()):
                raise InvalidDatumError(f"prehistory is not finite at s={s}")
        pos, jac = y
        vel, grad, vel_s = evaluate(s, pos)
        if not np.all(np.isfinite(vel)):
            raise InvalidDatumError(f"velocity field is not finite at s={s}")
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as einsum
            vel_grad = _matmul(grad, jac)
        # the velocity's slope is its material derivative u_s + (grad u) u
        rows.append((pos, vel, jac, vel_grad, vel_s + np.einsum("nab,nb->na", grad, vel)))
    rows.reverse()
    return HistoryBuffer(tau, h, masses, nodes, volumes, rows)
