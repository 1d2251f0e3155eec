"""Discretized Lagrangian state, delay history, and initial-datum construction.

The flow is sampled at Lagrangian nodes: each node carries a position, a
velocity, the tangent-flow matrices (position Jacobian and velocity gradient
with respect to the initial labels), and a fixed mass.  A
``HistoryBuffer``, the one owner of the step grid, holds the flow as untimed
rows over the trailing delay window and answers dense interpolation queries,
which is what makes the delayed force evaluable between stored steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LagrangianEnsemble",
    "HistoryView",
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
    identical across all slices of a run.
    """

    time: float
    positions: np.ndarray      # (N, d)
    velocities: np.ndarray     # (N, d)
    jacobians: np.ndarray      # (N, d, d)
    vel_gradients: np.ndarray  # (N, d, d)
    masses: np.ndarray         # (N,)
    labels: np.ndarray         # (N, d)
    cell_volumes: np.ndarray   # (N,)

    def __post_init__(self):
        n, d = self.positions.shape
        if n < 1:
            raise ValueError("ensemble needs at least one node")
        if self.velocities.shape != (n, d) or self.labels.shape != (n, d):
            raise ValueError("positions, velocities and labels must share shape (N, d)")
        if self.jacobians.shape != (n, d, d) or self.vel_gradients.shape != (n, d, d):
            raise ValueError("tangent-flow arrays must have shape (N, d, d)")
        if self.masses.shape != (n,) or self.cell_volumes.shape != (n,):
            raise ValueError("masses and cell_volumes must have shape (N,)")
        if abs(float(self.masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1 within 1e-12")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def max_speed(self) -> float:
        """The largest |v|, with no square out of range: scaled by an exact
        power of two where the largest component is outside [2^-500, 2^500]."""
        speeds = np.abs(self.velocities)
        top = float(speeds.max())
        if self.dim == 1:
            return top
        e = math.frexp(top)[1] if 0 < top < math.inf and not 2**-500 <= top <= 2**500 else 0
        return math.ldexp(float(np.sqrt((np.ldexp(speeds, -e)**2).sum(axis=1)).max()), e)

    def det_jacobians(self) -> np.ndarray:
        return _det(self.jacobians)


def _det(jacobians: np.ndarray) -> np.ndarray:
    """det J per node; a non-finite Jacobian gives a non-finite det, silently."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linalg.det(jacobians)


@dataclass
class HistoryView:
    """Interpolated (or stored) positions and velocities at one query time."""

    time: float
    positions: np.ndarray
    velocities: np.ndarray


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
    """The k >= 0 with value = k h to 1e-9 relative, or None if there is none."""
    k = round(value / h) if math.isfinite(value / h) else -1
    return k if k >= 0 and abs(k * h - value) <= 1e-9 * max(1.0, abs(value)) else None


def _delay_steps(tau: float, h: float) -> int:
    """The m with tau = m h; raises ValueError unless there is one."""
    if not h > 0:
        raise ValueError("step h must be positive")
    m = _grid_steps(tau, h)
    if m is None or (m > 0) != (tau > 0):
        raise ValueError(f"delay tau = {tau} is not a multiple of the step h = {h}")
    return m


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
    slope.  Only the stepper writes.  Stored-slot queries, ``slot``,
    ``latest`` and ``prehistory`` return views, valid until their slot is
    reused m + 3 steps later: copy what must outlive that.
    """

    def __init__(self, tau: float, h: float, masses, labels, cell_volumes, rows):
        m = _delay_steps(tau, h)
        if len(rows) != m + 1:
            raise ValueError(f"history needs {m + 1} rows on [-tau, 0], got {len(rows)}")
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
        return self._ensemble(self.clock)

    def _ensemble(self, j):
        r = j % len(self._pos)
        return LagrangianEnsemble(j * self.h, self._pos[r], self._vel[r], self._jac[r],
                                  self._vgrad[r], self.masses, self.labels,
                                  self.cell_volumes)

    def _oldest(self) -> int:
        return max(-self.m, self.clock - len(self._pos) + 1)

    def prehistory(self) -> list[LagrangianEnsemble]:
        """Stored slices at times <= 0, the prescribed datum part of the record."""
        return [self._ensemble(j) for j in range(self._oldest(), min(self.clock, 0) + 1)]

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

    def query(self, t: float) -> HistoryView:
        lo, hi = self._oldest(), self.clock
        x = t / self.h
        if not lo - _WINDOW_TOL <= x <= hi + _WINDOW_TOL:
            raise OutOfWindowError(
                f"query at t={t} outside stored window [{lo * self.h}, {hi * self.h}]")
        j = min(max(math.floor(x), lo), hi)
        theta = x - j
        if theta == 0.0 or j == hi:
            return HistoryView(t, *self.slot(j)[:2])
        return HistoryView(t, *self.interpolate(j, theta))

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
    """Time-dependent velocity field ``(s, x) -> u`` on the datum domain.

    Subclasses override :meth:`gradient` (and :meth:`time_partial`) with exact
    expressions where available; the base class falls back to central finite
    differences, which is what a user-supplied callable gets.
    """

    def __call__(self, s: float, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, s: float, x: np.ndarray) -> np.ndarray:
        """Spatial gradient, shape (N, d, d) with entries du_a/dx_b."""
        n, d = x.shape
        out = np.empty((n, d, d))
        h = 1e-6
        for b in range(d):
            dx = np.zeros((1, d))
            dx[0, b] = h
            out[:, :, b] = (self(s, x + dx) - self(s, x - dx)) / (2 * h)
        return out

    def time_partial(self, s: float, x: np.ndarray) -> np.ndarray:
        ds = 1e-6
        return (self(s + ds, x) - self(s - ds, x)) / (2 * ds)


class ConstantVelocity(VelocityField):
    def __init__(self, value):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))

    def __call__(self, s, x):
        return np.broadcast_to(self.value, x.shape).copy()

    def gradient(self, s, x):
        n, d = x.shape
        return np.zeros((n, d, d))

    def time_partial(self, s, x):
        return np.zeros_like(x)


class LinearVelocity(VelocityField):
    """Affine field ``u(x) = A x + b``."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = self.matrix.shape[0]
        self.offset = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)

    def __call__(self, s, x):
        return x @ self.matrix.T + self.offset

    def gradient(self, s, x):
        return np.broadcast_to(self.matrix, (x.shape[0], *self.matrix.shape)).copy()

    def time_partial(self, s, x):
        return np.zeros_like(x)


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

    def _arg(self, s, x):
        return self.wavenumber * x + self.phase + self.omega * s

    def __call__(self, s, x):
        return self.base + self.amplitude * np.sin(self._arg(s, x))

    def gradient(self, s, x):
        n, d = x.shape
        out = np.zeros((n, d, d))
        diag = self.amplitude * self.wavenumber * np.cos(self._arg(s, x))
        idx = np.arange(d)
        out[:, idx, idx] = diag
        return out

    def time_partial(self, s, x):
        return self.amplitude * self.omega * np.cos(self._arg(s, x))


class SliceTableVelocity(VelocityField):
    """Linear-in-time blend of velocity fields given at sample times."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(fields) != self.times.size or self.times.size < 2:
            raise ValueError("need matching 1-d times and fields with >= 2 entries")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("table times must be strictly increasing")
        self.fields = list(fields)

    def _bracket(self, s):
        s = min(max(s, self.times[0]), self.times[-1])
        i = int(np.searchsorted(self.times, s, side="right")) - 1
        i = min(max(i, 0), self.times.size - 2)
        theta = (s - self.times[i]) / (self.times[i + 1] - self.times[i])
        return i, theta

    def __call__(self, s, x):
        i, theta = self._bracket(s)
        return (1 - theta) * self.fields[i](s, x) + theta * self.fields[i + 1](s, x)

    def gradient(self, s, x):
        i, theta = self._bracket(s)
        return (1 - theta) * self.fields[i].gradient(s, x) \
            + theta * self.fields[i + 1].gradient(s, x)

    def time_partial(self, s, x):
        i, _ = self._bracket(s)
        dt = self.times[i + 1] - self.times[i]
        return (self.fields[i + 1](s, x) - self.fields[i](s, x)) / dt


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

    def nodes_and_volumes(self):
        axes = []
        spacings = []
        for a in range(self.lo.size):
            n = self.counts[a]
            d = (self.hi[a] - self.lo[a]) / n
            axes.append(self.lo[a] + (np.arange(n) + 0.5) * d)
            spacings.append(d)
        grids = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        vol = float(np.prod(spacings))
        return nodes, np.full(nodes.shape[0], vol)


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
    raw = dens * volumes
    total = float(raw.sum())
    if total <= 0.0:
        raise InvalidDatumError("initial datum carries zero total mass")
    keep = raw > 0
    nodes, volumes, raw = nodes[keep], volumes[keep], raw[keep]
    masses = raw / raw.sum()
    for arr in (nodes, volumes, masses):
        arr.flags.writeable = False

    field = datum.velocity
    n, d = nodes.shape

    def probe(s, pos):
        try:
            vals = field(s, pos)
        except ValueError as exc:
            raise InvalidDatumError(f"velocity field fails at s={s}: {exc}") from None
        if np.shape(vals) != (n, d):
            raise InvalidDatumError(
                f"velocity field has shape {np.shape(vals)} at s={s}, expected {(n, d)}")
        if not np.all(np.isfinite(vals)):
            raise InvalidDatumError(f"velocity field is not finite at s={s}")
        return vals

    def rhs(s, pos, jac):
        return field(s, pos), np.einsum("nab,nbc->nac", field.gradient(s, pos), jac)

    # walk back from the labels at t = 0, where the field is probed first
    y = (nodes.copy(), np.broadcast_to(np.eye(d), (n, d, d)).copy())
    rows = []
    for j in range(0, -m - 1, -1):
        if rows:  # one backward step, whose first stage is the later row
            y, _ = _rk4(rhs, y, -h, (rows[-1][1], rows[-1][3]), (j + 0.5) * h, j * h)
        s = j * h
        pos, jac = y
        vel, grad = probe(s, pos), field.gradient(s, pos)
        # the velocity's slope is its material derivative u_s + (grad u) u
        rows.append((pos, vel, jac, np.einsum("nab,nbc->nac", grad, jac),
                     field.time_partial(s, pos) + np.einsum("nab,nb->na", grad, vel)))
    rows.reverse()
    return HistoryBuffer(tau, h, masses, nodes, volumes, rows)
