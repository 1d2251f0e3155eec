"""The paper's invariants on generated runs, end to end through the CLI.

Derandomized hypothesis over small runs: N <= 12, d in {1, 2}, Cucker-Smale
beta in [0, 3], tau in {0} and [h, 0.5], uniform or gaussian densities and
sine prehistories.  Every run keeps unit mass and the velocity maximum
principle; a certified run keeps d_V <= V, a nonincreasing Lyapunov
functional, sup d_X <= d_star and d_V inside the predicted decay envelope (at
the acceptance suite's tolerances); a sweep cell is its standalone run, byte
for byte.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from flockdde.cli import execute_run, main
from flockdde.config import run_config_from_dict
from flockdde.diagnostics import prehistory_frames
from flockdde.state import discretize

H = 0.02


@st.composite
def run_docs(draw):
    d = draw(st.sampled_from([1, 2]))
    counts = ([draw(st.integers(1, 12))] if d == 1
              else [draw(st.integers(1, 3)), draw(st.integers(1, 4))])
    density = draw(st.one_of(
        st.just({"family": "uniform"}),
        st.builds(lambda c, s: {"family": "gaussian", "center": [c] * d, "sigma": s},
                  st.floats(0.0, 1.0), st.floats(0.2, 1.0))))
    return {
        "schema_version": 1,
        "kernel": {"family": "cucker-smale", "beta": draw(st.floats(0.0, 3.0))},
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


def test_invariants_of_generated_runs(time_limit):
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(run_docs())
    def check(doc):
        cfg = run_config_from_dict(doc)
        with time_limit(5):
            artifacts = execute_run(cfg)
        result, cert = artifacts["result"], artifacts["summary"]["certificate"]
        frames = result.frames
        assert abs(math.fsum(result.buffer.masses) - 1.0) <= 1e-12
        assert all(f.max_speed <= result.r_v + 1e-7 for f in frames)
        if cert["satisfied"]:
            assert all(f.d_V <= f.V_of_t + 1e-6 for f in frames)
            lyap = [f.lyapunov for f in frames]
            assert all(b - a <= 1e-6 for a, b in zip(lyap, lyap[1:]))
            assert max(f.d_X for f in frames) <= cert["d_star"] + 1e-6
            pre = prehistory_frames(discretize(cfg.datum, cfg.tau, cfg.step))
            top = max(f.d_V for f in pre)
            rate = cert["predicted_rate"]
            assert all(f.d_V <= top * math.exp(-rate * f.t) * 1.001 for f in frames)

    check()


def test_sweep_cells_are_their_standalone_runs(tmp_path, time_limit):
    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(run_docs(), st.floats(0.0, 3.0))
    def check(doc, other_beta):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        betas = [doc["kernel"]["beta"], other_beta]
        sweep = {"schema_version": 1, "base": doc, "max_workers": 1,
                 "axes": [{"path": "kernel.beta", "values": betas}]}
        (out / "sweep.json").write_text(json.dumps(sweep))
        with time_limit(5):
            assert main(["sweep", "--config", str(out / "sweep.json"),
                         "--out", str(out / "grid")]) == 0
            for i, beta in enumerate(betas):
                doc["kernel"]["beta"] = beta
                (out / f"run{i}.json").write_text(json.dumps(doc))
                assert main(["run", "--config", str(out / f"run{i}.json"),
                             "--out", str(out / f"solo{i}")]) in (0, 2)
                for name in ("frames.csv", "summary.json"):
                    assert ((out / "grid" / f"cell_{i:04d}" / name).read_bytes()
                            == (out / f"solo{i}" / name).read_bytes())

    check()
