"""Whole runs against an independent reference: the method of steps.

On each delay window [k tau, (k + 1) tau] the delayed alignment system is an
ODE driven by the previous window's dense output (Bellen and Zennaro,
*Numerical Methods for Delay Differential Equations*, 2003).  Each window,
and the prehistory's characteristics before them, is integrated by scipy's
DOP853 at tolerances far below the package's RK4 error, so the package must
converge to it at fourth order: a consistent model error (a wrong normalizer,
the kernel read against current positions, a wrong prehistory) converges to
another solution and fails here, where a self-convergence test passes.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from flockdde.dynamics import integrate
from flockdde.kernel import CuckerSmaleKernel
from flockdde.state import BoxDomain, InitialDatum, SineVelocity, discretize

DOP853 = {"method": "DOP853", "rtol": 1e-13, "atol": 1e-15, "dense_output": True}


def method_of_steps(labels, masses, field, beta, tau, t_end):
    """Positions and velocities at ``t_end`` (a whole number of delays) of
    the 1-D system x_i' = v_i, v_i' = sum_j m_j psi_ij v_j(t - tau) /
    sum_j m_j psi_ij - v_i, with psi_ij = (1 + (x_i(t) - x_j(t - tau))^2)^-beta.
    On [-tau, 0] each node rides the characteristic x' = field(s, x) that
    ends at its label at s = 0, with velocity field(s, x)."""
    n = labels.size
    prehistory = solve_ivp(field, (0.0, -tau), labels, **DOP853).sol

    def delayed(s, sol=prehistory):
        x = sol(s)
        return x, field(s, x)

    y = np.concatenate([labels, field(0.0, labels)])
    for k in range(round(t_end / tau)):
        def rhs(t, y, delayed=delayed):
            x, v = y[:n], y[n:]
            x_d, v_d = delayed(t - tau)
            w = masses * (1.0 + (x[:, None] - x_d[None, :]) ** 2) ** -beta
            return np.concatenate([v, w @ v_d / w.sum(axis=1) - v])

        window = solve_ivp(rhs, (k * tau, (k + 1) * tau), y, **DOP853)
        y = window.y[:, -1]

        def delayed(s, sol=window.sol):
            return np.split(sol(s), 2)
    return np.split(y, 2)


def test_runs_converge_at_fourth_order_to_the_method_of_steps():
    # 1-D, N = 6 at the cell midpoints of [0, 1] with equal masses, a sine
    # datum moving in time (omega = 5), five delay windows
    n, beta, tau, t_end = 6, 1.0, 0.2, 1.0
    amplitude, wavenumber, phase, omega = 0.2, 1.5, 0.4, 5.0

    def field(s, x):
        return amplitude * np.sin(wavenumber * x + phase + omega * s)

    labels = (np.arange(n) + 0.5) / n
    ref = np.concatenate(method_of_steps(labels, np.full(n, 1.0 / n), field,
                                         beta, tau, t_end))
    datum = InitialDatum(BoxDomain([0.0], [1.0], [n]),
                         SineVelocity([0.0], [amplitude], [wavenumber], [phase], omega=omega))

    def error(h):
        res = integrate(discretize(datum, tau, h), CuckerSmaleKernel(beta), t_end=t_end)
        assert res.blowup is None
        state = res.buffer.latest
        assert state.time == t_end
        return np.abs(np.concatenate([state.positions[:, 0], state.velocities[:, 0]]) - ref).max()

    errs = {h: error(h) for h in (4e-3, 2e-3)}
    assert math.log2(errs[4e-3] / errs[2e-3]) >= 3.5
    assert errs[2e-3] <= 1e-12
