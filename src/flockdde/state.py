"""Discretized Lagrangian state, delay history, and initial-datum construction.

The flow is sampled at Lagrangian nodes: each node carries a position, a
velocity, a fixed mass and, from t = 0 on, the tangent flow (position Jacobian
and velocity gradient with respect to the labels).  A ``HistoryBuffer``, the
one owner of the step grid, holds the flow as untimed ``(positions,
velocities)`` slots over the trailing delay window and the tangent flow once,
for the newest slot: ``latest``, a ``LagrangianEnsemble``, is the one slice
type, and ``gather`` stacks slots as plain arrays.  Dense interpolation makes
the delayed force evaluable between stored steps: every delayed read is such
a pair.  ``_run_steps`` holds every rule that a run's times obey on that grid.
The prehistory's velocity field answers one call, ``field(s, x) -> (u,
grad_u, u_s)``, and ``discretize`` makes and checks one per row and stage.
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
    """The newest slice of the discretized flow, as ``HistoryBuffer.latest``
    hands it out, with the tangent flow the buffer holds for it.

    ``masses``, ``labels`` and ``cell_volumes`` are shared, read-only arrays
    identical across all slices of a run.  A slice is not checked: its
    arrays are those ``HistoryBuffer`` checked when they entered.
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
    """det J per node, silently: LU's log of a zero pivot on a singular
    Jacobian, and a non-finite one, set no FP warning.  In 1-D det J is J
    itself, copied: LU's sign * exp(sum log |u_ii|) can miss it by an ulp."""
    if jacobians.shape[-1] == 1:
        return jacobians[..., 0, 0].copy()
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
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
    tau = m h, slot j holds ``(positions, velocities)`` at time j h, j read
    off an integer clock (never a sum of steps), in a ring of m + 3 slots.
    Its arguments are the arrays shared by all slots, the prehistory as m + 1
    untimed rows ``(positions, velocities, accel)``, oldest first, for slots
    -m..0, and the tangent flow ``(jacobians, vel_gradients)`` at t = 0, where
    it starts; ``tangent`` holds it for the newest slot alone, and each step
    replaces it.  A query at t reads j = floor(t / h): the slot itself when
    t / h = j, else the cubic Hermite interpolant at theta = t / h - j, whose
    slopes are the velocities for the positions and the stored dv/dt for the
    velocities.  That slope is the row's ``accel``, the datum's material
    derivative, at t <= 0, else the first RK4 stage of the step leaving the
    slot, kept apart at t = 0 where the prehistory hands over to the
    dynamics.  The newest slot holds the last stage of the step that made it
    until the next step replaces it, so only a query from outside the stepper
    into the newest interval reads that provisional slope.  The ring holds
    the arrays it is handed: it never copies or writes one.
    """

    def __init__(self, tau: float, h: float, masses, labels, cell_volumes, rows, tangent):
        m = _delay_steps(tau, h)
        if len(rows) != m + 1:
            raise ValueError(f"history needs {m + 1} rows on [-tau, 0], got {len(rows)}")
        n, d = np.shape(rows[0][0])
        shared = [np.shape(a) for a in (labels, masses, cell_volumes, *tangent)]
        if n < 1 or shared != [(n, d), (n,), (n,), (n, d, d), (n, d, d)] or any(
                [np.shape(a) for a in r] != [(n, d)] * 3 for r in rows):
            raise ValueError("history needs N >= 1 nodes, rows of three (N, d) arrays, shared "
                             "arrays shaped (N, d), (N,), (N,) and a tangent flow of two (N, d, d)")
        if not abs(float(np.sum(masses)) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("masses must sum to 1 within 1e-12")
        self.tau, self.h, self.m = float(tau), float(h), m
        self.masses, self.labels, self.cell_volumes = masses, labels, cell_volumes
        self._fwd0 = None  # the first stage of the step leaving t = 0
        self._slots, self._slopes = [None] * (m + 3), [None] * (m + 3)
        self.clock = -m - 1  # the newest slot; the prehistory ends at 0
        for pos, vel, accel in rows:
            self.append(pos, vel, accel)
        self.tangent = tangent  # (jacobians, vel_gradients) of the newest slot

    @property
    def current_time(self) -> float:
        return self.clock * self.h

    @property
    def latest(self) -> LagrangianEnsemble:
        return LagrangianEnsemble(self.current_time, *self.slot(self.clock), *self.tangent,
                                  self.masses, self.labels, self.cell_volumes)

    def _oldest(self) -> int:
        return max(-self.m, self.clock - len(self._slots) + 1)

    def prehistory_clocks(self) -> range:
        """Clocks of the stored slices at times <= 0, oldest first."""
        return range(self._oldest(), min(self.clock, 0) + 1)

    def gather(self, clocks, slots=None):
        """``(times, positions, velocities)``, (K,), (K, N, d) and (K, N, d): the
        ``slots`` at ``clocks``, the stored ones by default, stacked and copied."""
        pos, vel = (np.stack(a) for a in zip(*(slots or map(self.slot, clocks))))
        return np.asarray(clocks) * self.h, pos, vel

    def slot(self, j: int):
        """(positions, velocities) at j h."""
        return self._slots[j % len(self._slots)]

    def interpolate(self, j: int, theta: float):
        """Hermite (positions, velocities) at time (j + theta) h."""
        (p0, v0), (p1, v1) = self.slot(j), self.slot(j + 1)
        m0 = self._fwd0 if j == 0 else self._slopes[j % len(self._slots)]
        pos = _hermite(theta, self.h, p0, v0, p1, v1)
        vel = _hermite(theta, self.h, v0, m0, v1, self._slopes[(j + 1) % len(self._slots)])
        return pos, vel

    # only bench/spans.py and its own tests call query (with OutOfWindowError,
    # _WINDOW_TOL), until item 9a
    def query(self, t: float):
        """(positions, velocities) at time t: ``slot(j)`` or ``interpolate``."""
        lo, hi = self._oldest(), self.clock
        x = t / self.h
        if not lo - _WINDOW_TOL <= x <= hi + _WINDOW_TOL:
            raise OutOfWindowError(
                f"query at t={t} outside stored window [{lo * self.h}, {hi * self.h}]")
        j = min(max(math.floor(x), lo), hi)
        theta = x - j
        if theta == 0.0 or j == hi:
            return self.slot(j)
        return self.interpolate(j, theta)

    def copy(self) -> HistoryBuffer:
        """A buffer that steps on its own ring and shares every stored array:
        one prepared prehistory, run by several kernels."""
        twin = copy.copy(self)
        twin._slots, twin._slopes = list(self._slots), list(self._slopes)
        return twin

    def set_slope(self, accel: np.ndarray) -> None:
        """Store dv/dt leaving the newest slot (the first stage of its step)."""
        if self.clock == 0:
            self._fwd0 = accel
        else:
            self._slopes[self.clock % len(self._slots)] = accel

    def append(self, positions, velocities, slope) -> None:
        """Store the state one step on and its provisional slope, and tick."""
        self.clock += 1
        r = self.clock % len(self._slots)
        self._slots[r], self._slopes[r] = (positions, velocities), slope


class VelocityField:
    """Time-dependent velocity field on the datum domain, in closed form.

    ``field(s, x)``, at a time ``s`` and points ``x`` shaped (N, d), returns
    ``(u, grad_u, u_s)`` from one evaluation: the value (N, d), the spatial
    gradient (N, d, d) with entries du_a/dx_b, and the time partial (N, d).
    ``discretize`` takes the velocity gradient at t = 0 from ``grad_u``, and
    the velocity's Hermite slope, its material derivative ``u_s + (grad_u)
    u``, from all three.  The history keeps ``u`` itself: each call makes one.
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
        # amplitude * wavenumber * cos and amplitude * omega * cos form first;
        # an overflow is rejected where discretize checks the field
        with np.errstate(over="ignore"):
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
            volume = np.prod((self.hi - self.lo) / self.counts)
        if not np.isfinite(volume):
            raise ValueError("box extent and cell volume must be finite")
        if volume == 0:  # a subnormal volume still normalizes the masses
            raise ValueError("box cell volume underflows to 0: the box is too small for its counts")
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
    prescribed velocity field alone; the tangent flow (I, grad u) starts at
    t = 0.  The history keeps each row's arrays: the t = 0 positions copy the labels.
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

    def rhs(s, pos):
        return (evaluate(s, pos)[0],)

    # walk back from the labels at t = 0, where the field is evaluated first
    pos, rows = nodes.copy(), []
    for j in range(0, -m - 1, -1):
        s = j * h
        if rows:  # one backward step, whose first stage is the later row's velocity
            with np.errstate(over="ignore", invalid="ignore"):
                (pos,), _ = _rk4(rhs, (pos,), -h, (rows[-1][1],), (j + 0.5) * h, s)
            if not np.isfinite(pos).all():
                raise InvalidDatumError(f"prehistory is not finite at s={s}")
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as the stages
            vel, grad, vel_s = evaluate(s, pos)
            # the velocity's slope is its material derivative u_s + (grad u) u
            slope = vel_s + np.einsum("nab,nb->na", grad, vel)
        for name, a in (("", vel), (" gradient", grad), (" time partial", vel_s)):
            if not np.isfinite(a).all():
                raise InvalidDatumError(f"velocity field{name} is not finite at s={s}")
        if j == 0:  # (J, grad u J) at J = I: grad u, with einsum's +0 for a -0 entry
            tangent = (np.broadcast_to(np.eye(d), (n, d, d)).copy(), grad + 0.0)
        rows.append((pos, vel, slope))
    rows.reverse()
    return HistoryBuffer(tau, h, masses, nodes, volumes, rows, tangent)
