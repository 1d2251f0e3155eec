"""Discretized Lagrangian state, delay history, and initial-datum construction.

The flow is sampled at Lagrangian nodes: each node carries a position, a
velocity, the tangent-flow matrices (position Jacobian and velocity gradient
with respect to the initial labels), and a fixed mass.  A
``HistoryBuffer`` holds the time-ordered slices covering the trailing delay
window and answers dense interpolation queries, which is what makes the
delayed force evaluable between stored steps.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

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
    "write_snapshot_csv",
]

_TIME_MATCH_TOL = 1e-12


class InvalidDatumError(Exception):
    """The initial datum cannot be discretized (e.g. zero total mass)."""


class OutOfWindowError(Exception):
    """A history query fell outside the covered delay window."""


@dataclass
class LagrangianEnsemble:
    """One time slice of the discretized flow.

    ``masses``, ``labels`` and ``cell_volumes`` are shared, read-only arrays
    identical across all slices of a run.  ``accel_fwd``/``accel_bwd`` cache
    the one-sided time derivatives of the velocities at this slice time and
    serve as cubic-Hermite slopes; they differ only at t = 0, where the
    prescribed prehistory hands over to the alignment dynamics.
    """

    time: float
    positions: np.ndarray      # (N, d)
    velocities: np.ndarray     # (N, d)
    jacobians: np.ndarray      # (N, d, d)
    vel_gradients: np.ndarray  # (N, d, d)
    masses: np.ndarray         # (N,)
    labels: np.ndarray         # (N, d)
    cell_volumes: np.ndarray   # (N,)
    accel_fwd: np.ndarray | None = None  # dv/dt leaving this time
    accel_bwd: np.ndarray | None = None  # dv/dt arriving at this time

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
        return float(np.sqrt((self.velocities**2).sum(axis=1)).max())

    def det_jacobians(self) -> np.ndarray:
        return np.linalg.det(self.jacobians)


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


class HistoryBuffer:
    """Dense, interpolable record of the ensemble over [t - tau, t].

    Single-writer: only the integrator appends/prunes.  Reads between steps
    are safe from any thread.  Positions interpolate with the stored
    velocities as exact Hermite slopes; velocities use the cached one-sided
    acceleration slopes, falling back to the interval secant where a slope is
    not set.  That happens only at the newest slice, whose slope the next
    step fills from its first stage, so only a query from outside the stepper
    into the newest interval reads the secant.
    """

    def __init__(self, tau: float, slices: list[LagrangianEnsemble]):
        if tau < 0:
            raise ValueError("delay tau must be nonnegative")
        if not slices:
            raise ValueError("history needs at least one slice")
        times = [s.time for s in slices]
        if any(t1 - t0 <= 0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("slice times must be strictly increasing")
        if times[-1] - times[0] < tau - _TIME_MATCH_TOL:
            raise ValueError("slices must cover the full delay window")
        self.tau = float(tau)
        self.slices = list(slices)
        self._times = times

    @property
    def current_time(self) -> float:
        return self._times[-1]

    @property
    def latest(self) -> LagrangianEnsemble:
        return self.slices[-1]

    def prehistory(self) -> list[LagrangianEnsemble]:
        """Slices at times <= 0, the prescribed datum part of the record."""
        return [s for s in self.slices if s.time <= _TIME_MATCH_TOL]

    def append(self, ens: LagrangianEnsemble) -> None:
        if ens.time <= self._times[-1]:
            raise ValueError("appended slice must advance time")
        self.slices.append(ens)
        self._times.append(ens.time)

    def prune(self, keep_from: float) -> None:
        """Drop old slices, always keeping one at or below ``keep_from``."""
        while len(self.slices) >= 2 and self._times[1] <= keep_from:
            self.slices.pop(0)
            self._times.pop(0)

    def query(self, t: float) -> HistoryView:
        times = self._times
        if t < times[0] - _TIME_MATCH_TOL or t > times[-1] + _TIME_MATCH_TOL:
            raise OutOfWindowError(
                f"query at t={t} outside stored window [{times[0]}, {times[-1]}]"
            )
        i = bisect_right(times, t) - 1
        i = min(max(i, 0), len(times) - 1)
        # snap to a stored slice when the query hits one
        for j in (i, i + 1):
            if 0 <= j < len(times) and abs(times[j] - t) <= _TIME_MATCH_TOL * max(1.0, abs(t)):
                s = self.slices[j]
                return HistoryView(s.time, s.positions, s.velocities)
        left, right = self.slices[i], self.slices[i + 1]
        dt = right.time - left.time
        theta = (t - left.time) / dt
        pos = _hermite(theta, dt, left.positions, left.velocities,
                       right.positions, right.velocities)
        secant = (right.velocities - left.velocities) / dt
        m0 = left.accel_fwd if left.accel_fwd is not None else secant
        m1 = right.accel_bwd if right.accel_bwd is not None else secant
        vel = _hermite(theta, dt, left.velocities, m0, right.velocities, m1)
        return HistoryView(t, pos, vel)


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

    def material_derivative(self, s: float, x: np.ndarray) -> np.ndarray:
        """d/ds of u along its own characteristics: u_s + (grad u) u."""
        u = self(s, x)
        grad = self.gradient(s, x)
        return self.time_partial(s, x) + np.einsum("nab,nb->na", grad, u)


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


def _rk4(rhs, t, y, h, k1):
    """One classical RK4 step of ``y' = rhs(t, *y)`` from the given first stage.

    ``y`` and each stage are tuples of arrays; returns the new tuple.  Callers
    already hold ``k1``: the stepper caches it as a Hermite slope, and the
    prehistory reads it off the slice it built last.
    """
    k2 = rhs(t + h / 2, *(a + (h / 2) * k for a, k in zip(y, k1)))
    k3 = rhs(t + h / 2, *(a + (h / 2) * k for a, k in zip(y, k2)))
    k4 = rhs(t + h, *(a + h * k for a, k in zip(y, k3)))
    return tuple(a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def discretize(datum: InitialDatum, tau: float, n_history_slices: int) -> HistoryBuffer:
    """Build the Lagrangian nodes and the prehistory record on [-tau, 0].

    Midpoint-rule nodes carry masses proportional to density times cell
    volume, normalized to total mass 1; zero-mass nodes are dropped.
    Prehistory positions come from backward RK4 integration of the
    characteristic flow under the prescribed velocity field, with the tangent
    flow integrated alongside for the Jacobians; tau = 0 gives the one slice
    at t = 0, whatever ``n_history_slices`` says.
    """
    if tau < 0:
        raise ValueError("delay tau must be nonnegative")
    if tau > 0 and n_history_slices < 2:
        raise ValueError("need at least 2 history slices when tau > 0")

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

    n_slices = n_history_slices if tau > 0 else 1
    times = np.linspace(-tau, 0.0, n_slices)
    times[-1] = 0.0  # a single-point linspace starts at -tau = -0.0
    # walk back from the labels at t = 0, where the field is probed first
    y = (nodes.copy(), np.broadcast_to(np.eye(d), (n, d, d)).copy())
    slices = []
    for k in range(n_slices - 1, -1, -1):
        if slices:  # one backward step, whose first stage is the later slice
            y = _rk4(rhs, times[k + 1], y, times[k] - times[k + 1],
                     (slices[-1].velocities, slices[-1].vel_gradients))
        s = times[k]
        pos, jac = y
        vel = probe(s, pos)
        accel = field.material_derivative(s, pos)
        slices.append(LagrangianEnsemble(
            time=float(s),
            positions=pos,
            velocities=vel,
            jacobians=jac,
            vel_gradients=np.einsum("nab,nbc->nac", field.gradient(s, pos), jac),
            masses=masses, labels=nodes, cell_volumes=volumes,
            accel_fwd=None if k == n_slices - 1 else accel,
            accel_bwd=accel,
        ))
    slices.reverse()
    return HistoryBuffer(tau, slices)


def write_snapshot_csv(ensemble: LagrangianEnsemble, path) -> None:
    """Write one ensemble as CSV: t, node_id, label..., pos..., vel..., mass, detJ."""
    d = ensemble.dim
    dets = ensemble.det_jacobians()
    cols = (["t", "node_id"]
            + [f"label_{a}" for a in range(d)]
            + [f"pos_{a}" for a in range(d)]
            + [f"vel_{a}" for a in range(d)]
            + ["mass", "detJ"])
    with open(path, "w", encoding="utf-8") as f:
        f.write("# flockdde snapshot schema v1\n")
        f.write(",".join(cols) + "\n")
        for i in range(ensemble.n_nodes):
            row = [f"{ensemble.time:.17g}", str(i)]
            row += [f"{x:.17g}" for x in ensemble.labels[i]]
            row += [f"{x:.17g}" for x in ensemble.positions[i]]
            row += [f"{x:.17g}" for x in ensemble.velocities[i]]
            row += [f"{ensemble.masses[i]:.17g}", f"{dets[i]:.17g}"]
            f.write(",".join(row) + "\n")
