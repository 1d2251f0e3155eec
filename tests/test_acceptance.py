"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass line per
criterion.  Everything is checked against closed-form oracles or the model's
proven inequalities at desk scale.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import newest_force, prehistory_r_v, slopes
from flockdde.cli import main as cli_main
from flockdde.config import preset_dict
from flockdde.diagnostics import (
    certify_flocking,
    fit_decay_rate,
    gronwall_rate,
    prehistory_frames,
)
from flockdde.dynamics import integrate, step
from flockdde.kernel import CuckerSmaleKernel
from flockdde.state import (
    BoxDomain,
    InitialDatum,
    LinearVelocity,
    SineVelocity,
    discretize,
)
from flockdde.threshold1d import classify


def ok(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS - {text}")


# ten scenarios whose prehistory satisfies the flocking condition
CERTIFIED_SCENARIOS = [
    ("flat-delay", 0.0, 0.5,
     InitialDatum(BoxDomain([0.0], [1.0], [16]), LinearVelocity([[0.5]]))),
    ("flat-sine", 0.0, 0.0,
     InitialDatum(BoxDomain([0.0], [1.0], [12]),
                  SineVelocity([0.1], [0.2], [2.0]))),
    ("heavy-sine", 0.25, 0.2,
     InitialDatum(BoxDomain([0.0], [1.0], [16]),
                  SineVelocity([0.0], [0.4], [1.5], [0.4]))),
    ("heavy-long-delay", 0.25, 1.0,
     InitialDatum(BoxDomain([0.0], [1.0], [12]), LinearVelocity([[0.3]]))),
    ("border-sine", 0.5, 0.5,
     InitialDatum(BoxDomain([0.0], [1.0], [16]),
                  SineVelocity([0.0], [0.3], [1.0]))),
    ("border-contracting", 0.5, 0.1,
     InitialDatum(BoxDomain([0.0], [1.0], [12]), LinearVelocity([[-0.35]]))),
    ("thin-tail-small", 1.0, 0.0,
     InitialDatum(BoxDomain([0.0], [1.0], [16]),
                  SineVelocity([0.0], [0.1], [2.0]))),
    ("thin-tail-delay", 1.0, 0.1,
     InitialDatum(BoxDomain([0.0], [0.5], [12]),
                  SineVelocity([0.05], [0.08], [2.0]))),
    ("heavy-2d", 0.25, 0.5,
     InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [4, 4]),
                  LinearVelocity([[-0.2, 0.1], [0.0, -0.1]]))),
    ("border-2d-gaussian", 0.5, 0.2,
     InitialDatum(BoxDomain([0.0, 0.0], [1.0, 1.0], [4, 4]),
                  SineVelocity([0.0, 0.1], [0.2, 0.15], [2.0, 1.0]),
                  density=lambda x: np.exp(-((x - 0.5) ** 2).sum(axis=1)))),
]


@pytest.fixture(scope="module")
def certified_runs():
    out = []
    h, t_end = 0.01, 20.0
    for name, beta, tau, datum in CERTIFIED_SCENARIOS:
        kernel = CuckerSmaleKernel(beta)
        buffer = discretize(datum, tau, h)
        pre = prehistory_frames(buffer)
        cert = certify_flocking(pre, kernel)
        assert cert.satisfied, f"scenario {name} must be certified"
        res = integrate(buffer, kernel, t_end=t_end, output_every=0.02)
        assert res.blowup is None, f"scenario {name} must stay smooth"
        out.append((name, cert, pre, res))
    return out


def test_criterion_01_flat_kernel_exact_decay():
    datum = InitialDatum(BoxDomain([0.0], [1.0], [64]), LinearVelocity([[0.5]]))
    res = integrate(discretize(datum, 0.5, 1e-3), CuckerSmaleKernel(0.0),
                    t_end=5.0, output_every=0.01)
    assert res.blowup is None
    rate = fit_decay_rate(res.frames, 0.0, 5.0)
    assert abs(rate - 1.0) <= 1e-3
    d0 = res.frames[0].d_V
    final = res.frames[-1].d_V
    exact = d0 * math.exp(-5.0)
    assert abs(final - exact) <= 1e-6 * exact
    ok(1, f"rate {rate:.6f}, final d_V relative error "
          f"{abs(final - exact) / exact:.2e}")


def test_criterion_02_velocity_maximum_principle():
    rng = np.random.default_rng(42)
    combos = list(itertools.product([0.0, 0.25, 1.0, 2.0], [0.0, 0.1, 1.0]))
    combos += [combos[i % len(combos)] for i in range(20 - len(combos))]
    worst_excess = -math.inf
    for beta, tau in combos:
        dim = int(rng.integers(1, 3))
        if dim == 1:
            domain = BoxDomain([0.0], [1.0], [12])
        else:
            domain = BoxDomain([0.0, 0.0], [1.0, 1.0], [3, 4])
        if rng.random() < 0.5:
            mat = rng.uniform(-0.35, 0.35, size=(dim, dim))
            field = LinearVelocity(mat, rng.uniform(-0.3, 0.3, size=dim))
        else:
            field = SineVelocity(rng.uniform(-0.3, 0.3, size=dim),
                                 rng.uniform(0.05, 0.25, size=dim),
                                 rng.uniform(0.5, 2.0, size=dim),
                                 rng.uniform(0.0, 2 * np.pi, size=dim))
        res = integrate(discretize(InitialDatum(domain, field), tau, 1e-3),
                        CuckerSmaleKernel(beta), t_end=2.0, output_every=0.02)
        excess = max(f.max_speed for f in res.frames) - res.r_v
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-7, f"beta={beta}, tau={tau}: excess {excess}"
    ok(2, f"20 randomized runs, worst max_speed - R_V = {worst_excess:.2e}")


def test_criterion_03_dv_below_v_and_lyapunov_monotone(certified_runs):
    worst_gap = -math.inf
    worst_rise = -math.inf
    for name, _, _, res in certified_runs:
        for f in res.frames:
            worst_gap = max(worst_gap, f.d_V - f.V)
            assert f.d_V <= f.V + 1e-6, name
        lyap = np.array([f.lyapunov for f in res.frames])
        rises = np.diff(lyap)
        worst_rise = max(worst_rise, float(rises.max()))
        assert np.all(rises <= 1e-6), name
    ok(3, f"10 certified runs, worst d_V - V = {worst_gap:.2e}, "
          f"worst Lyapunov rise = {worst_rise:.2e}")


def test_criterion_04_certificate_implies_conclusion(certified_runs):
    for name, cert, pre, res in certified_runs:
        sup_dx = max(f.d_X for f in res.frames)
        assert sup_dx <= cert.d_star + 1e-6, name
        max_pre_dv = max(f.d_V for f in pre)
        rate = cert.predicted_rate
        for f in res.frames:
            bound = max_pre_dv * math.exp(-rate * f.t) * 1.001
            assert f.d_V <= bound, f"{name} at t={f.t}"
    ok(4, "10 certified runs stay within d_star and the predicted decay envelope")


def test_criterion_05_gronwall_solver():
    assert gronwall_rate(0.5, 0.0) == 0.5
    worst = 0.0
    for a in np.linspace(0.05, 0.95, 10):
        for tau in np.linspace(0.0, 3.0, 10):
            c = gronwall_rate(float(a), float(tau))
            worst = max(worst, abs(1 - c - (1 - a) * math.exp(c * tau)))
    assert worst < 1e-12
    ok(5, f"100-point grid, worst residual {worst:.2e}; rate(0.5, 0) == 0.5")


def test_criterion_06_riccati_blowup_time():
    datum = InitialDatum(BoxDomain([0.0], [1.0], [16]), LinearVelocity([[-2.0]]))
    res = integrate(discretize(datum, 0.1, 1e-3), CuckerSmaleKernel(0.0),
                    t_end=2.0, output_every=0.01)
    found = res.blowup
    assert found is not None
    t_star, _ = found
    assert abs(t_star - math.log(2.0)) <= 1e-2
    verdict = classify(-2.0, CuckerSmaleKernel(0.0), r_v=res.r_v)
    assert verdict.verdict == "finite-time-blowup"
    assert t_star <= verdict.bound  # classifier bound 1/(w2- - w0) = 1
    assert verdict.bound == pytest.approx(1.0, abs=1e-12)
    ok(6, f"blow-up at t = {t_star:.4f} (ln 2 = {math.log(2):.4f}), "
          f"inside the bound {verdict.bound:.1f}")


def test_criterion_07_subcritical_persistence():
    # slope a*k*cos(kx) dips to exactly -0.9 inside the box
    datum = InitialDatum(BoxDomain([0.0], [1.0], [12]),
                         SineVelocity([0.0], [0.9 / 3.5], [3.5]))
    buf = discretize(datum, 0.1, 1e-3)
    w0_min = float((buf.latest.vel_gradients[:, 0, 0]).min())
    assert w0_min >= -0.9 - 1e-12
    _, w, event = slopes(buf, CuckerSmaleKernel(0.0), 10_000)
    assert event is None
    w_min = float(w.min())
    assert w_min >= -1.0 - 1e-4
    ok(7, f"min slope over nodes/time = {w_min:.4f} >= -1 - 1e-4, no blow-up")


def test_criterion_08_force_gradient_bound():
    samples = 0
    for beta in (0.25, 1.0):
        kernel = CuckerSmaleKernel(beta)
        datum = InitialDatum(BoxDomain([0.0], [1.0], [50]),
                             LinearVelocity([[0.4]]))
        buf = discretize(datum, 0.1, 2e-3)
        r_v = prehistory_r_v(buf)
        c_bar = 2.0 * kernel.log_deriv_bound * r_v
        for _ in range(100):
            cur = buf.latest
            _, force_grad, _ = newest_force(buf, kernel)
            grad = force_grad[:, 0, 0] / cur.jacobians[:, 0, 0]
            assert np.abs(grad).max() <= c_bar + 1e-9
            samples += grad.size
            step(buf, kernel)
    assert samples >= 10_000
    ok(8, f"{samples} sampled position-gradients all below C_bar + 1e-9")


def test_criterion_09_small_data_diffeomorphism():
    base_mat = np.array([[-0.3, 0.15], [0.1, -0.2]])
    deficits = {}
    for eps in (1e-1, 1e-2, 1e-3):
        datum = InitialDatum(
            BoxDomain([0.0, 0.0], [1.0, 1.0], [4, 4]),
            LinearVelocity(eps * base_mat, [0.1 * eps, 0.0]))
        res = integrate(discretize(datum, 0.1, 0.01), CuckerSmaleKernel(1.0),
                        t_end=10.0, output_every=0.05)
        assert res.blowup is None
        deficits[eps] = 1.0 - min(f.min_detJ for f in res.frames)
    assert deficits[1e-1] > deficits[1e-2] > deficits[1e-3] >= 0.0
    k_fit = deficits[1e-1] / 1e-1
    for eps in (1e-2, 1e-3):
        assert deficits[eps] <= 1.05 * k_fit * eps + 1e-12
    ok(9, f"min detJ >= 1 - K*eps with K = {k_fit:.3f}; deficits "
          + ", ".join(f"{e:g}: {d:.2e}" for e, d in deficits.items()))


def test_criterion_10_convergence_order():
    # the time-animated prehistory keeps real temporal derivatives in play, so
    # truncation errors sit far above the roundoff floor at every h; each run
    # discretizes the prehistory on its own step grid
    datum = InitialDatum(BoxDomain([0.0], [1.0], [8]),
                         SineVelocity([0.1], [0.2], [2.0], omega=15.0))
    kernel = CuckerSmaleKernel(1.0)

    def final_state(h):
        buf = discretize(datum, 0.2, h)
        n = int(round(1.0 / h))
        for _ in range(n):
            step(buf, kernel)
        ens = buf.latest
        return np.concatenate([ens.positions.ravel(), ens.velocities.ravel()])

    errors = {}
    for h in (4e-3, 2e-3, 1e-3):
        ref = final_state(h / 8)
        errors[h] = float(np.abs(final_state(h) - ref).max())
    orders = [math.log2(errors[4e-3] / errors[2e-3]),
              math.log2(errors[2e-3] / errors[1e-3])]
    assert min(orders) >= 3.5
    ok(10, "observed orders " + ", ".join(f"{o:.2f}" for o in orders)
       + f" (errors {errors})")


def test_criterion_11_tail_integral_values():
    k1 = CuckerSmaleKernel(1.0)
    worst = 0.0
    for r in (0.0, 1.0, 10.0):
        exact = math.pi / 2 - math.atan(r)
        worst = max(worst, abs(k1.tail_integral(r) - exact))
        assert abs(k1.tail_integral(r) - exact) <= 1e-9
    assert CuckerSmaleKernel(0.25).tail_integral(0.0) == math.inf
    ok(11, f"beta=1 tails match pi/2 - arctan(R) within {worst:.2e}; "
           f"beta=0.25 reports +infinity")


def test_criterion_12_preset_determinism(tmp_path):
    cfg_path = tmp_path / "preset.json"
    cfg_path.write_text(json.dumps(preset_dict("unconditional-beta025")))
    for sub in ("a", "b"):
        code = cli_main(["run", "--config", str(cfg_path),
                        "--out", str(tmp_path / sub)])
        assert code == 0
    csv_a = (tmp_path / "a" / "frames.csv").read_bytes()
    csv_b = (tmp_path / "b" / "frames.csv").read_bytes()
    assert csv_a == csv_b
    ok(12, f"two executions byte-identical ({len(csv_a)} bytes)")
