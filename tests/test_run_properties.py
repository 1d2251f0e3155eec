"""The paper's invariants on generated runs, end to end through the CLI.

Derandomized hypothesis over small runs: N <= 12, d in {1, 2}, Cucker-Smale
beta in [0, 3] or a tabulated profile, tau in {0} and [h, 0.5], uniform or
gaussian densities and sine prehistories.  Every run keeps unit mass and the
velocity maximum principle; a certificate's lhs and R_V are the run's
first-frame Lyapunov value and R_V, bit for bit; a certified run keeps
d_V <= V, sup d_X <= d_star and d_V inside the predicted decay envelope (at
the acceptance suite's tolerances), and a nonincreasing Lyapunov functional:
to 1e-6 in the first delay window and to rounding after it.  A tabulated
run's tail is infinite, so it is always certified, checked the same way and
ends without blow-up; every 1-D run has a threshold verdict.  A sweep cell is
its standalone run, byte for byte.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import monotone_tables
from flockdde.cli import execute_run, main
from flockdde.config import run_config_from_dict
from flockdde.diagnostics import prehistory_frames
from flockdde.state import discretize

H = 0.02

CUCKER_SMALE = st.floats(0.0, 3.0).map(lambda b: {"family": "cucker-smale", "beta": b})


TABULATED = monotone_tables(st.integers(2, 5), st.floats(0.05, 1.0), st.floats(0.2, 1.0)).map(
    lambda table: {"family": "tabulated", "radii": table[0], "values": table[1]})


@st.composite
def run_docs(draw, kernels):
    d = draw(st.sampled_from([1, 2]))
    counts = ([draw(st.integers(1, 12))] if d == 1
              else [draw(st.integers(1, 3)), draw(st.integers(1, 4))])
    density = draw(st.one_of(
        st.just({"family": "uniform"}),
        st.builds(lambda c, s: {"family": "gaussian", "center": [c] * d, "sigma": s},
                  st.floats(0.0, 1.0), st.floats(0.2, 1.0))))
    return {
        "schema_version": 1,
        "kernel": draw(kernels),
        "datum": {"domain": {"box": [[0.0, 1.0]] * d, "counts": counts},
                  "density": density,
                  "velocity": {"family": "sine-perturbation", "base": [0.0] * d,
                               "amplitude": [draw(st.floats(0.0, 0.4))] * d,
                               "wavenumber": [2.0, 1.0][:d],
                               "phase": [draw(st.floats(0.0, 2 * math.pi))] * d}},
        # tau = m h: 0, or a grid point of [h, 0.5]
        "tau": draw(st.integers(0, 25)) * H,
        "step": H,
        "t_end": 0.6,
        "output_every": H,
    }


def _check_run(doc, time_limit):
    """Run ``doc`` and check the invariants that hold for its kernel."""
    cfg = run_config_from_dict(doc)
    with time_limit(5):
        result, summary = execute_run(cfg)
    cert, frames = summary["certificate"], result.frames
    assert abs(math.fsum(result.buffer.masses) - 1.0) <= 1e-12
    assert all(f.max_speed <= result.r_v + 1e-7 for f in frames)
    assert (summary["threshold"] is None) == (len(doc["datum"]["domain"]["box"]) != 1)
    if doc["kernel"]["family"] == "tabulated":
        # constant past the last node: the tail diverges
        assert cert["rhs"] == math.inf and cert["satisfied"]
        assert result.blowup is None
    assert cert["lhs"] == frames[0].lyapunov and cert["R_V"] == summary["R_V"]
    if cert["satisfied"]:
        assert all(f.d_V <= f.V + 1e-6 for f in frames)
        # past t = tau, L changes by the rule's change of Y - W at t - tau,
        # <= dt (d_V - V) there; RK4 decays slower than e^{-h} by h^5 / 120
        # per step, which can leave d_V above V by a few 1e-10.  In the first
        # window the change also carries a term of the prehistory data.
        excess = max(0.0, max(f.d_V - f.V for f in frames))
        for a, b in zip(frames, frames[1:]):
            rise = b.lyapunov - a.lyapunov
            if a.t >= doc["tau"]:
                assert rise <= 1e-13 * abs(a.lyapunov) + (b.t - a.t) * excess
            else:
                assert rise <= 1e-6
        assert max(f.d_X for f in frames) <= cert["d_star"] + 1e-6
        pre = prehistory_frames(discretize(cfg.datum, cfg.tau, cfg.step))
        top = max(f.d_V for f in pre)
        rate = cert["predicted_rate"]
        assert all(f.d_V <= top * math.exp(-rate * f.t) * 1.001 for f in frames)


def test_invariants_of_generated_runs(time_limit):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(run_docs(CUCKER_SMALE))
    def check(doc):
        _check_run(doc, time_limit)

    check()


def test_invariants_of_generated_tabulated_runs(time_limit):
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(run_docs(TABULATED))
    def check(doc):
        _check_run(doc, time_limit)

    check()


def test_lyapunov_nonincreasing_on_every_frame_of_a_tight_case(time_limit):
    # a frame of this run once rose by 6.95e-7, near the first-window bound
    doc = {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 0.25},
           "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [9]},
                     "density": {"family": "uniform"},
                     "velocity": {"family": "sine-perturbation", "base": [0.0],
                                  "amplitude": [0.397], "wavenumber": [2.0],
                                  "phase": [5.283]}},
           "tau": 0.46, "step": H, "t_end": 0.6, "output_every": H}
    with time_limit(5):
        result, summary = execute_run(run_config_from_dict(doc))
    assert summary["certificate"]["satisfied"]
    lyap = [f.lyapunov for f in result.frames]
    assert len(lyap) == 31 and all(b <= a for a, b in zip(lyap, lyap[1:]))


def test_sweep_cells_are_their_standalone_runs(tmp_path, time_limit):
    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(run_docs(CUCKER_SMALE | TABULATED), st.floats(0.0, 3.0))
    def check(doc, other_beta):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        kernels = [doc["kernel"], {"family": "cucker-smale", "beta": other_beta}]
        sweep = {"schema_version": 1, "base": doc, "max_workers": 1,
                 "axes": [{"path": "kernel", "values": kernels}]}
        (out / "sweep.json").write_text(json.dumps(sweep))
        with time_limit(5):
            assert main(["sweep", "--config", str(out / "sweep.json"),
                         "--out", str(out / "grid")]) == 0
            for i, kernel in enumerate(kernels):
                doc["kernel"] = kernel
                (out / f"run{i}.json").write_text(json.dumps(doc))
                assert main(["run", "--config", str(out / f"run{i}.json"),
                             "--out", str(out / f"solo{i}")]) in (0, 2)
                for name in ("frames.csv", "summary.json"):
                    assert ((out / "grid" / f"cell_{i:04d}" / name).read_bytes()
                            == (out / f"solo{i}" / name).read_bytes())

    check()
